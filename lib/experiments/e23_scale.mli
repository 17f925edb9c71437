(** E23 — sharded parallel execution at scale (Sec 4, distributed
    data-plane state).

    Runs a k=4 fat tree (20 switches, 16 hosts, deterministic two-level
    routing) under [Parsim] at several shard counts and checks the
    conformance guarantee: merged arrival trace and merged per-switch
    metrics byte-identical to the 1-shard sequential run, while
    recording the throughput curve. The {!chaos} variant adds per-shard
    seeded fault engines on intra-shard links and checks packet
    conservation. *)

val name : string

val k : int
val num_hosts : int

val topo : unit -> Evcore.Topology.t
val addr_of_host : int -> Netcore.Ipv4_addr.t

val routing_program : Evcore.Program.spec
val switch_config : seed:int -> int -> Evcore.Event_switch.config

val scenario :
  ?shards:int ->
  ?record_trace:bool ->
  ?on_shard:(Parsim.shard_ctx -> unit) ->
  seed:int ->
  until:Eventsim.Sim_time.t ->
  unit ->
  Parsim.config
(** The full forwarding scenario (topology traffic included) as a
    [Parsim] config — reused by the golden-trace suite and the bench
    harness. [record_trace] defaults to [true]. *)

(** {1 Golden-trace scenario}

    The canonical conformance artefact: the digests of the {e
    sequential} run of this scenario are recorded in [test/golden/] and
    every sharded run must reproduce them byte-for-byte. *)

val golden_until : Eventsim.Sim_time.t

val golden_scenario : ?shards:int -> seed:int -> unit -> Parsim.config
(** {!scenario} pinned to {!golden_until} with the trace recorded. *)

val golden : Conformance.golden
(** Seeds 42 and 7 (the E6 and E21 seeds); digest lines ["trace"] and
    ["metrics"] of {!golden_scenario}. *)

type result = {
  seed : int;
  until : Eventsim.Sim_time.t;
  runs : unit Conformance.run list;
  all_conformant : bool;
}

val run :
  ?metrics:Obs.Metrics.t ->
  ?seed:int ->
  ?shard_counts:int list ->
  ?until:Eventsim.Sim_time.t ->
  unit ->
  result

val print : result -> unit

(** {1 Sharded chaos} *)

type chaos_result = {
  c_shards : int;
  c_seed : int;
  sent : int;
  received : int;
  duplicated : int;
  link_lost : int;
  switch_dropped : int;
  cross_lost : int;  (** cut off in flight between shards by [until] *)
  balance : int;  (** conservation residue; 0 = nothing unaccounted *)
  injected : int;
  conserved : bool;
  flowing : bool;
  faults_fired : bool;
}

val chaos :
  ?shards:int -> ?seed:int -> ?until:Eventsim.Sim_time.t -> unit -> chaos_result

val chaos_passed : chaos_result -> bool
val print_chaos : chaos_result -> unit
