(** The consistent-update controller.

    Sits above [Evcore.Control_plane] — one modeled control channel per
    switch — and drives {!Commit} transactions over {!Policy} versions.
    {!propose} assigns the next monotonic version and two-phase-commits
    it; a proposal arriving mid-update parks in a single pending slot
    (a newer proposal supersedes an older parked one — the storm
    semantics: latest intent wins).

    {b Replication.} A controller is built per parsim shard, but every
    replica is given the {e full} switch set: each runs shadow
    [Control_plane] instances (seeded per switch, so op timing and
    jitter are identical everywhere) and the identical {!Commit} state
    machine; only the replica that {e owns} a switch (its [agents]
    slot is [Some]) applies the device mutation. Because every input —
    CP jitter, the loss oracle, link-event trigger times — is a pure
    function of (seed, switch), the replicas never need to talk and a
    sharded run stays byte-identical to the sequential one. *)

type t

val create :
  sched:Eventsim.Scheduler.t ->
  switches:int ->
  agents:Agent.t option array ->
  initial:Policy.t ->
  ?sup:(int -> Resil.Supervisor.t option) ->
  ?commit:Commit.config ->
  ?lost:(switch:int -> now:Eventsim.Sim_time.t -> bool) ->
  seed:int ->
  unit ->
  t
(** [agents.(sw) = Some a] iff this replica owns switch [sw]. The
    [initial] policy is bootstrapped directly (installed on owned
    agents at time zero, no protocol); versions then count up from
    [Policy.version initial + 1]. [sup sw] supplies an optional
    supervisor guarding switch [sw]'s control channel (quarantined
    channels drop ops — counted by [cp.dropped_ops]). [lost] is the
    op-loss oracle (default: lossless). Each switch's control plane
    has 4 us latency, 500 ns jitter and 1M ops/s. *)

val propose : t -> Policy.t -> unit
(** Stamp the next version onto [p] and start (or park) its update. *)

val version : t -> int
(** Version of the last committed policy. *)

val policy : t -> Policy.t
val in_flight_version : t -> int option
val stats : t -> Commit.stats
val proposals : t -> int
val committed : t -> int
val rolled_back : t -> int
val superseded : t -> int
val cp : t -> int -> Evcore.Control_plane.t
val cps : t -> Evcore.Control_plane.t array
val mixed : t -> int
(** Sum of {!Agent.mixed} over owned agents. *)

val schedule_digest : t -> string
(** MD5 of {!log_contents} plus the final committed version — the
    value the determinism property compares across shard counts. *)

val register_invariants : ?wedge_bound:Eventsim.Sim_time.t -> t -> Resil.Invariants.t -> unit
(** Install the runtime safety checks: [netupd.mixed] (no packet ever
    observes two versions — {!Agent.mixed} stays zero) and
    [netupd.wedged] (no update stays in flight longer than
    [wedge_bound], default 1 ms). *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Set-style [netupd.*] series: proposal / outcome counts, the op
    ledger (attempts, losses, acks, retries, abandons, dedups) and the
    committed-version / in-flight gauges. *)
