(** Append-only (time, value) series with simple reductions; used by
    monitoring applications that periodically sample buffer occupancy
    and by experiment harnesses that print figure series. *)

type t

val create : ?capacity:int -> unit -> t
val add : t -> time:float -> value:float -> unit
val length : t -> int
val nth : t -> int -> float * float
val values : t -> float array
val last : t -> (float * float) option

val fold : t -> init:'a -> f:('a -> float -> float -> 'a) -> 'a
(** [fold t ~init ~f] folds [f acc time value] in insertion order. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)
