(** Deterministic, seeded fault-injection engine.

    One engine owns a master {!Stats.Rng} (split per fault process, in
    registration order, so timelines are reproducible and independent)
    and the per-fault-class bookkeeping:

    - [injected]: fault actions that took effect (a flap that found the
      link up, a non-[Deliver] perturbation verdict, a storm packet, a
      churn op);
    - [absorbed]: occurrences with no effect (flap while already down,
      perturbation that decided [Deliver]);
    - [dropped]: packets destroyed by the fault class itself
      (perturbation [Drop] verdicts).

    Downstream losses (overflow drops, in-flight loss on a failed link)
    are counted where they happen — traffic manager, link — and
    reconciled by the chaos experiment's conservation check. *)

type t

type counts = { injected : int; absorbed : int; dropped : int }

val create :
  sched:Eventsim.Scheduler.t -> seed:int -> stop:Eventsim.Sim_time.t -> unit -> t

val add_link_flaps :
  t ->
  name:string ->
  plan:Schedule.plan ->
  ?down_for:Eventsim.Sim_time.t ->
  ?down_jitter:Eventsim.Sim_time.t ->
  Tmgr.Link.t ->
  unit
(** Register a {!Flapper} on the link under fault class [name]. *)

val add_perturbation : t -> name:string -> config:Perturb.config -> Tmgr.Link.t -> unit
(** Register a {!Perturb} on the link under fault class [name]; the
    link's stale-notification counter is exported alongside. *)

val add_burst_storm :
  t ->
  name:string ->
  plan:Schedule.plan ->
  pkts_per_burst:int ->
  pkt_bytes:int ->
  rate_gbps:float ->
  template:(int -> Netcore.Packet.t) ->
  inject:(Netcore.Packet.t -> unit) ->
  unit
(** Register a {!Burst} storm under fault class [name]. *)

val add_churn :
  t -> name:string -> plan:Schedule.plan -> ops:(string * (unit -> unit)) array -> unit
(** Register a {!Churn} process under fault class [name]. *)

val add_handler_crash :
  t -> name:string -> plan:Schedule.plan -> Resil.Supervisor.key -> unit
(** Register a {!Handler_fault} crash injector on a supervised handler.
    Occurrences that find the handler quarantined (so the fault cannot
    take effect) are counted [absorbed]. *)

val add_handler_slowdown :
  t -> name:string -> plan:Schedule.plan -> steps:int -> Resil.Supervisor.key -> unit
(** Like {!add_handler_crash} but each armed invocation burns [steps]
    watchdog steps, exercising the budget-exhaustion trap. *)

val stats : t -> (string * counts) list
(** Per-fault-class counters, sorted by class name (deterministic). *)

val total_injected : t -> int

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish [faults.injected] / [faults.absorbed] / [faults.dropped]
    counters labelled by fault class, plus per-link perturbation and
    stale-notification counters. Idempotent; no-op when disabled. *)
