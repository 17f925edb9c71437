(** Fixed-bucket histograms with approximate percentiles, in
    power-of-two (log2) buckets for long-tailed quantities such as
    staleness in cycles or latency in nanoseconds. *)

type t

val log2 : max_exponent:int -> t
(** Buckets [\[0,1), \[1,2), \[2,4), \[4,8), ... up to 2^max_exponent.
    Negative samples land in an underflow bin below the first bucket;
    samples past the last bucket count only toward {!count}, {!mean}
    and {!max_seen}. *)

val add : t -> float -> unit
val count : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] returns an estimate (bucket upper bound
    interpolation) of the given quantile in [\[0, 1\]]. Returns [nan]
    when empty. *)

val max_seen : t -> float
(** Exact maximum of all added samples ([neg_infinity] when empty). *)
