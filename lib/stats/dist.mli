(** Random variates for workload synthesis. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential rng ~rate] draws from Exp(rate); mean is [1. /. rate].
    Used for Poisson inter-arrival gaps. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** Pareto with minimum value [scale] and tail index [shape]. Heavy-tailed
    flow sizes use [shape] around 1.2-1.6. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian via Box-Muller. *)

val geometric : Rng.t -> p:float -> int
(** Number of Bernoulli(p) trials up to and including the first success
    (support 1, 2, ...). *)

type zipf
(** Precomputed Zipf sampler over [1..n]. *)

val zipf : n:int -> alpha:float -> zipf
(** Built once per [(n, alpha)] and shared by every later call, from
    any domain: a sampler is read-only. *)

val zipf_draw : Rng.t -> zipf -> int
(** [zipf_draw rng z] draws a rank in [\[1, n\]]; rank 1 is the most
    popular. *)

val zipf_pmf : zipf -> int -> float
(** Probability mass of a rank, for analytic comparisons in tests. *)
