(** Deterministic control-plane op loss.

    A per-target Bernoulli oracle for "did this control-channel
    submission get lost in the churn?". Each target (switch) draws from
    its own seeded stream, consumed in that target's submission order —
    so verdicts are a pure function of [(seed, target, submission
    index)], independent of how targets interleave globally. That is
    what lets replicated controllers (one per parsim shard) agree on
    every loss without communicating, and keeps chaos runs
    byte-identical across shard counts.

    Losses only *occur* inside the [\[start, stop)] window, but the
    stream is drawn on every query so narrowing the window never shifts
    later verdicts. *)

type t

val create :
  seed:int -> targets:int -> drop_p:float ->
  ?start:Eventsim.Sim_time.t -> ?stop:Eventsim.Sim_time.t -> unit -> t
(** Defaults: window = always ([start = 0], [stop = max_int]). *)

val lost : t -> target:int -> now:Eventsim.Sim_time.t -> bool
(** Verdict for the next submission to [target] at time [now]; consumes
    one draw from the target's stream. *)
