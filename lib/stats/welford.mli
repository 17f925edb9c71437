(** Streaming mean / variance / extrema (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Population variance; 0 when fewer than two samples. *)

val std : t -> float
val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val merge : t -> t -> t
(** Combine two summaries as if all samples were added to one. *)
