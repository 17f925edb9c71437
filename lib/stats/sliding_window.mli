(** Time-windowed accumulator backed by a circular array of slots — the
    "shift register" the paper's §5 time-windowed measurement project
    uses. Each slot covers [slot_width] time units; [rotate]-ing on a
    timer advances the window. *)

type t

val create : slots:int -> slot_width:float -> t
(** Window length is [slots * slot_width] time units. *)

val add : t -> float -> unit
(** Accumulate into the current (newest) slot. *)

val rotate : t -> unit
(** Advance the window by one slot, discarding the oldest. Driven by a
    periodic timer event. *)

val completed_rate : t -> float
(** Average rate over the completed slots only, excluding the
    in-progress newest slot — the unbiased estimator to read right
    after a rotation. A single-slot window has no completed slot and
    gives the sum over the window divided by its length. *)
