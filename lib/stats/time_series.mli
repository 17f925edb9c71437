(** Append-only (time, value) series with simple reductions; used by
    monitoring applications that periodically sample buffer occupancy
    and by experiment harnesses that print figure series. *)

type t

val create : unit -> t
(** Room for 64 points; the arrays double whenever they fill. *)

val add : t -> time:float -> value:float -> unit
val length : t -> int
val nth : t -> int -> float * float
val last : t -> (float * float) option

val max_value : t -> float
(** [neg_infinity] when empty. *)
