(** Fixed-bucket histograms with approximate percentiles.

    Two bucket layouts are provided: linear buckets over a closed range,
    and power-of-two (log2) buckets for long-tailed quantities such as
    staleness in cycles or latency in nanoseconds. *)

type t

val linear : lo:float -> hi:float -> buckets:int -> t
(** [linear ~lo ~hi ~buckets] divides [\[lo, hi)] into equal buckets.
    Samples outside the range are counted in underflow/overflow bins. *)

val log2 : max_exponent:int -> t
(** Buckets [\[0,1), \[1,2), \[2,4), \[4,8), ... up to 2^max_exponent.
    Negative samples land in the underflow bin. *)

val add : t -> float -> unit
val count : t -> int
val underflow : t -> int
val overflow : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] returns an estimate (bucket upper bound
    interpolation) of the given quantile in [\[0, 1\]]. Returns [nan]
    when empty. *)

val max_seen : t -> float
(** Exact maximum of all added samples ([neg_infinity] when empty). *)

val buckets : t -> (float * float * int) list
(** [(lo, hi, count)] for each non-empty bucket, in order. *)

val clear : t -> unit
