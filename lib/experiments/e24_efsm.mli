(** E24 — per-flow EFSM externs under flow skew.

    Part A measures the OPP contention bottleneck: back-to-back
    arrivals through a stateful firewall under uniform single-hit and
    Zipf key distributions. Same-flow revisits within the pipeline's
    RMW latency stall; single-hit traffic must record exactly zero
    stalls.

    Part B runs both EFSM apps (stateful firewall, per-flow rate
    enforcer) on a ring of 8 switches under Parsim at 1/2/4 shards and
    checks that merged traces and merged metrics — including the
    per-switch [pisa.efsm.*] series and state-evolution digest — are
    byte-identical to the sequential run. *)

val name : string

type skew_row = {
  workload : string;
  packets : int;
  flows : int;
  steps : int;
  stalls : int;
  stall_frac : float;
  occupancy : int;
}

type result = {
  seed : int;
  until : Eventsim.Sim_time.t;
  skew : skew_row list;
  runs : (string * unit Conformance.run list) list;  (** per app: ["fw"], ["rate"] *)
  all_conformant : bool;
  uniform_stalls : int;
  zipf_stalls : int;
}

val golden : Conformance.golden
(** Seeds 42 and 7; one trace and one metrics digest per app
    (["fw.trace"], ["fw.metrics"], ["rate.trace"], ["rate.metrics"]).
    The canon is the sequential run; every shard count must reproduce
    it byte-for-byte. *)

val run : ?metrics:Obs.Metrics.t -> ?seed:int -> unit -> result
(** Runs the golden scenario's 400 µs over the shard counts of
    {!Conformance.sweep}. *)

val print : result -> unit
