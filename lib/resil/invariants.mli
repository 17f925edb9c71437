(** Runtime invariant checker.

    A periodic simulated-time process that sweeps a set of named
    checks — predicates over global simulator state such as packet
    conservation (generated = delivered + dropped + in-flight), buffer
    occupancy within capacity, and timer monotonicity. Each check
    returns [None] when the invariant holds or [Some msg] describing
    the violation.

    The violation policy decides the blast radius: [Abort] raises
    {!Violation} out of the scheduler run (debugging mode), [Record]
    counts it, keeps a bounded log, and lets the simulation continue
    (the default — violations then surface through [resil.invariant.*]
    metrics). *)

type policy = Abort | Record

exception Violation of string * string
(** [(check name, message)] — raised under [Abort]. *)

type t

val create :
  sched:Eventsim.Scheduler.t ->
  ?policy:policy ->
  ?period:Eventsim.Sim_time.t ->
  unit ->
  t
(** Defaults: [Record] policy, 100 us sweep period. *)

val add : t -> name:string -> (unit -> string option) -> unit
(** Register a check. A check that raises is itself recorded as a
    violation (checks must not crash the checker). *)

val add_zero : t -> name:string -> (unit -> int) -> unit
(** Register a check over a counter that must stay exactly zero (the
    common shape for "this must never happen" counters, e.g.
    [Netupd.Agent] mixed-version forwardings). The violation message
    reports the offending value. *)

val start : t -> stop:Eventsim.Sim_time.t -> unit
(** Begin periodic sweeps, one period from now and every period after,
    self-rescheduling until simulated time would pass [stop] (so the
    checker never keeps the scheduler run alive on its own). Each
    sweep runs every check once. *)

val passes : t -> int
val checks_run : t -> int
val violations : t -> int

val violation_log : t -> (Eventsim.Sim_time.t * string * string) list
(** First [64] violations, oldest first: (time, check, message). *)

val check_stats : t -> (string * int) list
(** Per check: (name, violations), in registration order. *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** [resil.invariant.passes] / [checks_run] / [violations] plus a
    per-check violation counter for checks that fired. Idempotent;
    no-op when disabled. *)
