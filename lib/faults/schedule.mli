(** When faults happen: seeded occurrence processes.

    A plan turns into a chain of scheduler events firing a callback at
    each occurrence strictly before [stop]. All randomness is drawn
    from the caller's {!Stats.Rng} in firing order, so a fixed seed
    gives a byte-identical fault timeline. *)

type plan =
  | Periodic of {
      start : Eventsim.Sim_time.t;
      period : Eventsim.Sim_time.t;
      jitter : Eventsim.Sim_time.t;
          (** uniform extra gap in [0, jitter] added per period *)
    }
  | Poisson of { start : Eventsim.Sim_time.t; rate_per_sec : float }
      (** first occurrence at [start], then exponential gaps *)
  | Trace of Eventsim.Sim_time.t list
      (** explicit deterministic occurrence times *)

val drive :
  sched:Eventsim.Scheduler.t ->
  rng:Stats.Rng.t ->
  stop:Eventsim.Sim_time.t ->
  plan ->
  (unit -> unit) ->
  unit
(** Arrange the callback at every occurrence of the plan in
    [\[now, stop)]. Trace times already in the past are skipped. *)
