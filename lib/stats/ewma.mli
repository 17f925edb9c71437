(** Exponentially weighted moving average, as used for queue-occupancy
    smoothing in RED-style AQM and for link-utilization estimates. *)

type t

val create : alpha:float -> t
(** [alpha] in (0, 1]; larger alpha weights recent samples more. *)

val update : t -> float -> float
(** Feed a sample, return the new average. *)

val value : t -> float
(** Current average (0 before any sample unless initialised). *)
