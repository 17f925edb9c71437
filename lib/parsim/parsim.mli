(** Sharded parallel simulation backend (§4: distributed data-plane
    state).

    Partitions a declarative {!Evcore.Topology} into per-domain shards
    — one {!Eventsim.Scheduler} plus its switches, hosts and
    intra-shard links per OCaml domain — synchronized conservatively in
    lockstep windows, with one barrier per round. Arriving at the
    barrier after a window, a shard publishes the timestamp of the
    earliest event left in its queue (or {!Horizon.no_event}) and, per
    destination shard, the earliest arrival time it sent there during
    the window. Both are plain arrays, double-buffered by round parity
    and published by the increment of one shared arrival counter.
    After the barrier every shard releases its inbound messages and
    reads shard [j]'s next event as [min (next_j, min_i sent_i->j)] —
    what [j]'s queue holds once released — so the fleet-wide window
    horizon is computed identically everywhere as
    [min_j (next_event_j + min cross-link delay out of j)], clamped to
    [until + 1] ({!Horizon.adaptive_bound}). Safe because cross-shard
    sends wait in mailboxes until the barrier: shard [j] sends nothing
    timestamped before its published next event, and the packet still
    rides a real link delay. Quiescent shards publish
    {!Horizon.no_event} and stop constraining the fleet, so sparse
    traffic advances in a handful of windows instead of serializing at
    min-delay granularity. Every round advances the horizon by at least
    the minimum cross-link delay [L], so a run never takes more rounds
    than the [ceil ((until + 1) / L)] fixed windows of width [L] would.

    A packet crossing shards departs inside some window at or after the
    sender's published next event and arrives at least its link delay
    later, i.e. at or after the shared horizon — no shard ever receives
    an event in its past.

    Cross-shard deliveries ride mailboxes: one growable array per
    (window parity, source shard, destination shard). The sender
    appends to its window's mailbox; after the next barrier the
    receiver sorts the messages of all its mailboxes of that window by
    (arrival time, link, sequence), posts them into its scheduler and
    empties the mailboxes. The barrier alone orders writer and reader:
    a fast shard already sending from the next window writes the other
    parity, and a mailbox is written again only two windows later,
    after its receiver has arrived at the barrier that follows its
    release. So the posted set, hence same-picosecond order and queue
    depth, never depends on how the shards interleave. When every
    published next event is past [until] the fleet stops — the
    quiescence vote falls out of the same published data.

    The barrier is the engine's one wait. It spins 200
    [Domain.cpu_relax] (a few microseconds), then parks on the waiting
    shard's own mutex/condition doorbell, which the last arrival rings.
    A parked shard costs no CPU, so more shards than cores stay cheap.

    [shards = 1] takes the true sequential path — one scheduler, plain
    {!Eventsim.Scheduler.run}, no mailboxes — so a sharded run can be
    conformance-checked against the sequential run of the same seed:
    with the topology builders' per-link delay skew keeping concurrent
    arrivals off the same picosecond, the merged event {!result.trace}
    and merged metrics are byte-identical across shard counts. *)

module Horizon = Horizon
(** Re-exported: the pure synchronization-safety arithmetic. *)

type partition = {
  shards : int;
  shard_of_switch : int array;
  shard_of_host : int array;  (** a host lives with its edge switch *)
  shard_weight : int array;  (** summed switch weights per shard *)
}

val default_weights : Evcore.Topology.t -> int array
(** Expected-event-rate weight per switch: [1 + wired ports + 4 per
    attached host]. Edge switches (hosts, traffic generation, delivery)
    weigh several times a same-degree core switch. *)

val recommended_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count ())] — the shard count
    [shards = 0] resolves to (capped by the switch count). *)

val partition : ?weights:int array -> Evcore.Topology.t -> shards:int -> partition
(** Contiguous blocks of switch ids, balanced by weight ({!default_weights}
    unless [weights] overrides; length must equal the switch count,
    entries non-negative). Boundaries are the nearest-prefix-sum cuts,
    clamped so that no shard is ever empty — arbitrarily skewed weights
    degrade toward the equal-count split instead of producing an empty
    shard. [shards] must be between 1 and the switch count. *)

type cross_link = {
  link : Evcore.Topology.link;
  shard_a : int;  (** shard owning endpoint [a] *)
  shard_b : int;
}

type plan = {
  part : partition;
  local_links : (int * Evcore.Topology.link) list;
      (** (owning shard, link); both endpoints on one shard *)
  cross : cross_link list;
  pair_delays : (int * int * int) list;
      (** directed (src shard, dst shard, min link delay) for every
          shard pair joined by at least one cross link — the horizon's
          per-pair reachability data; empty when nothing crosses *)
}

val plan : ?weights:int array -> Evcore.Topology.t -> shards:int -> plan

type shard_ctx = {
  shard : int;
  sched : Eventsim.Scheduler.t;
  metrics : Obs.Metrics.t;
  switches : (int * Evcore.Event_switch.t) list;  (** by global id *)
  hosts : (int * Evcore.Host.t) list;
  links : (int * Tmgr.Link.t) list;
      (** intra-shard links by [link_id]; host links are appended after
          switch links with ids [links + host] — valid fault-injection
          targets. Cross-shard links are mailbox messages, not [Link.t]s,
          and cannot be failed (a status change cannot honour the
          lookahead contract); restrict chaos to these. *)
}

type config = {
  shards : int;  (** [0] = auto: {!recommended_domains}, capped by switches *)
  until : Eventsim.Sim_time.t;  (** execute events with time <= until *)
  record_trace : bool;
      (** record every switch-port/host packet arrival; the merged
          trace is the conformance artefact (costs allocation — leave
          off for throughput runs) *)
  record_digest : bool;
      (** fold every arrival into the order-independent
          {!result.arrival_digest} instead of retaining entries — the
          conformance artefact for runs whose full trace would not fit
          in memory. O(1) space, no allocation per arrival. *)
  switch_config : int -> Evcore.Event_switch.config;
      (** per-switch; [num_ports] is raised to cover the topology.
          Must not depend on the shard count, or determinism across
          shard counts is forfeit. *)
  program : int -> Evcore.Program.spec;
  on_shard : shard_ctx -> unit;
      (** runs once per shard after wiring, before the clock starts
          (still on the spawning domain): install workloads, faults,
          extra metrics *)
}

val config :
  ?shards:int ->
  ?record_trace:bool ->
  ?record_digest:bool ->
  ?on_shard:(shard_ctx -> unit) ->
  until:Eventsim.Sim_time.t ->
  switch_config:(int -> Evcore.Event_switch.config) ->
  program:(int -> Evcore.Program.spec) ->
  unit ->
  config
(** Defaults: 1 shard, no trace, no digest. *)

type result = {
  plan : plan;
  rounds_executed : int;
      (** lockstep windows executed (identical on every shard); [1] on
          the sequential path. Sparse traffic executes far fewer rounds
          than the fixed-window count [ceil ((until + 1) / L)]. *)
  events : int;  (** callbacks executed, summed over shards *)
  cross_sent : int;
  cross_delivered : int;  (** < [cross_sent] when [until] cut arrivals off *)
  trace : string list;
      (** merged arrival trace, deterministically ordered by
          (time, entity kind, entity id, per-entity seq); empty unless
          [record_trace] *)
  arrival_digest : string;
      (** 16-hex-digit commutative hash of the arrival multiset — the
          sort key (time, kind, id, per-entity seq) is a total order,
          so the multiset determines the merged trace and the digest
          pins exactly what the trace pins, shard-count independently.
          Empty unless [record_digest]. *)
  tie_arrivals : int;
      (** arrivals observed on the same picosecond as the previous
          arrival at the same entity (counted only when recording).
          Non-zero means the workload violated the no-simultaneous-
          arrivals precondition the conformance guarantee rests on:
          runs at different shard counts may still agree, but are no
          longer guaranteed to. Conformance scenarios should keep
          this at zero (source jitter, link skew). *)
  registries : Obs.Metrics.t list;
      (** per shard. After its last window each shard exports its own
          switches' series into its registry, on its own domain. *)
  metrics_json : string;
      (** {!Obs.Metrics.merged_json} of the per-shard registries as they
          stood after that export: per-switch series only (plus whatever
          [on_shard] added), so a sequential and a sharded run are
          byte-comparable. Each shard sorts and renders its registry on
          its own domain ({!Obs.Metrics.render}); the join after the
          domains return only merges ({!Obs.Metrics.join}). *)
  host_sent : int array;  (** by host id *)
  host_received : int array;
  host_received_bytes : int array;
  wall_s : float;
      (** wall-clock of the run phase only: from the clock start to the
          end of the last shard's last window. The export, rendering and
          merge of the result come after it. *)
  shard_busy_s : float array;
      (** per shard, seconds executing windows (mailbox appends and
          horizon arithmetic included); [[| wall_s |]] on the
          sequential path *)
  shard_wait_s : float array;  (** per shard, seconds waiting at the barrier *)
  shard_release_s : float array;
      (** per shard, seconds emptying, sorting and posting its inbound
          mailboxes. Busy + wait + release of a shard never exceed
          [wall_s]; the remainder is domain spawn and the gap to the
          last shard's stop. Zeros on the sequential path. *)
  shard_parks : int array;
      (** per shard, times it slept on its doorbell at the barrier
          after spinning in vain; zeros on the sequential path *)
  ctxs : shard_ctx array;
}

val run : config -> Evcore.Topology.t -> result
(** Build, execute, merge. Validates the topology; raises
    [Invalid_argument] on a bad shard count or an [until] outside
    [\[0, Horizon.no_event)], at every shard count. [shards = 0] resolves to
    [min (recommended_domains ()) switches] before planning.

    An exception raised on a shard — by a handler, e.g. a fail-fast
    {!Resil.Supervisor.Failed}, or by the shard's metrics export — ends
    the run: the first one is recorded, every other shard leaves the
    barrier and stops, every domain is joined, and [run] re-raises that
    exception with its backtrace. *)
