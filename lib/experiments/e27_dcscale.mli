(** E27 — datacenter-scale simulation (Sec 4 at k=16).

    Runs a k=16 fat tree (320 switches, 1024 hosts) under a streaming
    Zipf/Pareto/Poisson flow mix ({!Workloads.Flowgen.install}, O(live
    flows) memory) at every count of the {!Conformance} sweep and checks
    conformance on [Parsim]'s order-independent arrival digest — the
    trace itself is too large to retain. Two further legs: the adaptive
    horizon on sparse traffic (k=8, 16 senders at 500 us spacing),
    checked against the fixed-window round count, and a 1024-switch
    ring at the auto shard count. *)

val name : string

val topo : unit -> Evcore.Topology.t

(** Workload sizing (simulated time + rates). [until] leaves room for
    every flow started before [arrival_stop] to finish and drain. *)
type knobs = {
  until : Eventsim.Sim_time.t;
  arrival_stop : Eventsim.Sim_time.t;
  arrival_rate_per_host : float;
  rate_pps : float;  (** per-flow emission rate *)
  mean_packets : float;
  max_packets : int;
  concurrency_target : int;  (** min peak live flows expected; 0 = unchecked *)
}

val scenario :
  ?shards:int ->
  ?record_digest:bool ->
  ?samples:int array array ->
  ?sources:Workloads.Flowgen.source_stats list ref ->
  seed:int ->
  knobs:knobs ->
  unit ->
  Parsim.config
(** The full streaming scenario as a [Parsim] config. [samples] (one
    row per shard, 4 columns) receives the per-shard live
    flow counts probed at fixed simulated instants; [sources]
    accumulates every host's {!Workloads.Flowgen.source_stats}. *)

(** {1 Golden digests}

    A scaled-down (still ~15k-flow, 320-switch) version of the
    workload whose arrival digest and merged-metrics MD5 are pinned in
    [test/golden/] — every shard count must reproduce the sequential
    values byte-for-byte. *)

val golden_knobs : knobs

val golden : Conformance.golden
(** Seeds 42 and 7; digest lines ["arrivals"] and ["metrics"]. *)

(** What {!scenario} fills in during one run: the [samples] and
    [sources] it was given. *)
type probes = {
  samples : int array array;
  sources : Workloads.Flowgen.source_stats list ref;
}

type sparse = {
  sp_shards : int;
  rounds : int;  (** lockstep rounds the adaptive horizon executed *)
  windows : int;
      (** [ceil ((until + 1) / L)] for the plan's min cross-link delay
          [L]: the rounds fixed-width windows would take *)
  wall : float;
}
(** The sparse leg passes when [rounds < windows]. *)

type ring_leg = {
  rg_switches : int;
  rg_shards : int;
  rg_rounds : int;
  rg_events : int;
  rg_received : int;
  rg_wall : float;
}

type result = {
  seed : int;
  knobs : knobs;
  runs : probes Conformance.run list;
  all_conformant : bool;
  peak_live : int;
  concurrency_ok : bool;
  sparse : sparse;
  ring : ring_leg;
}

val run_sparse : seed:int -> shards:int -> sparse
(** The sparse leg alone (k=8 fat tree; cheap, used by tests). *)

val run : ?metrics:Obs.Metrics.t -> ?seed:int -> unit -> result
(** The full-size run (22.4 ms horizon, flow arrivals until 9.6 ms,
    a 100,000-live-flow concurrency target) over the shard counts of
    {!Conformance.sweep}, plus the sparse and ring legs. *)

val print : result -> unit
