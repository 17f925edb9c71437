(** Deterministic pseudo-random number generator.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] seeded by the experiment, so that runs are reproducible.
    The generator is splitmix64 (Steele et al.), which has a full 2^64
    period and passes BigCrush; it is more than adequate for workload
    synthesis. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Two generators created with
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each traffic source its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)
