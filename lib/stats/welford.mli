(** Streaming mean / standard deviation / extrema (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val std : t -> float
(** Population standard deviation; 0 when fewer than two samples. *)

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)
