(** Discrete-event simulation driver.

    Callbacks are executed in non-decreasing time order; ties run in
    schedule order. A callback may schedule further work, including at
    the current instant.

    A queued event is one {!Ladder_queue} node and nothing else: the
    node holds the callback and the event's class as an int tag, in the
    way the paper's Event Switch (§5) moves an event as one fixed
    metadata record with an integer class. {!post} queues the caller's
    closure itself, so a warm post/step cycle allocates nothing.
    {!schedule} and {!every} also return a small {!handle} and queue a
    wrapper that fires and counts only while its handle is live.

    Every scheduling call takes a class [?cls] from the closed {!cls}
    type, used only by the profiling hooks: with {!set_metrics}
    installed, per-class execution counts (an array index per event),
    the queue-depth high-water mark and wall-time per simulated second
    are recorded into an {!Obs.Metrics} registry. Without it (or with
    the registry disabled) the hooks cost one branch per event. *)

(** Event classes. Each is counted as the [class] label shown beside
    it, on the [scheduler.callbacks] series that appears at the class's
    first executed event. *)
type cls =
  | Callback  (** ["callback"]: the default of {!post} and {!schedule} *)
  | Periodic  (** ["periodic"]: the default of {!every} *)
  | Workload  (** ["workload"]: traffic sources *)
  | Link  (** ["link"]: link arrivals and status notifications *)
  | Xlink  (** ["xlink"]: cross-shard arrivals *)
  | Merger_admit  (** ["merger.admit"] *)
  | Switch_decision  (** ["switch.decision"] *)
  | Tm_tx  (** ["tm.tx"]: transmission completions *)
  | Timer  (** ["timer"] *)
  | Pktgen  (** ["pktgen"] *)
  | Control  (** ["control"] *)
  | Fault  (** ["fault"] *)
  | Netupd  (** ["netupd"] *)
  | Efsm_sweep  (** ["pisa.efsm.sweep"] *)
  | Resil_backoff  (** ["resil.backoff"] *)
  | Resil_invariant  (** ["resil.invariant"] *)

type t
type handle

val create : unit -> t
(** A scheduler at time 0 with an empty {!Ladder_queue}. *)

val now : t -> Sim_time.t

val schedule : ?cls:cls -> t -> at:Sim_time.t -> (unit -> unit) -> handle
(** Scheduling in the past raises [Invalid_argument]. [cls] defaults to
    {!Callback}. *)

val post : ?cls:cls -> t -> at:Sim_time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no handle, so the event cannot be
    cancelled, and the queue holds [f] itself with no wrapper. Use it
    on hot paths that never cancel. Past times raise [Invalid_argument]
    like {!schedule}. *)

val post_after : ?cls:cls -> t -> delay:Sim_time.t -> (unit -> unit) -> unit
(** {!post} at [now + delay]; a negative [delay] raises
    [Invalid_argument]. *)

val cancel : handle -> unit
(** Cancelling an already-run or cancelled handle is a no-op. For a
    periodic handle, cancellation stops all future firings. Cancelled
    events leave {!pending} immediately (they still occupy a queue slot
    until their time comes, but are never executed). *)

val every : ?cls:cls -> t -> period:Sim_time.t -> (unit -> unit) -> handle
(** Fire at now + [period] and then every [period] until cancelled.
    [cls] defaults to {!Periodic}. *)

val run : ?until:Sim_time.t -> t -> unit
(** Execute events until the queue is empty or the next event is after
    [until]; with [until], the clock is left at [until]. The loop drains
    same-timestamp batches without re-peeking the queue per event. *)

val step : t -> bool
(** Run the single earliest event; [false] if the queue was empty. *)

val drain_until_horizon : t -> horizon:Sim_time.t -> unit
(** Conservative-PDES window execution: run every queued event with
    time {e strictly before} [horizon] and leave the clock at exactly
    [horizon]. Events at [horizon] or later stay queued, and new work
    may still be scheduled at the horizon itself ([at = now] is legal),
    which is how a parallel shard injects cross-shard deliveries whose
    timestamps open the next window. A horizon before [now] raises
    [Invalid_argument]. *)

val next_time : t -> Sim_time.t
(** Timestamp of the earliest queued event, or a negative value when
    the queue is empty. The earliest event may be a cancelled one (it parks
    at its slot until popped), so treat the result as a {e conservative
    lower bound} on the next live event — exactly what adaptive-horizon
    computations need. After {!drain_until_horizon} the result is never
    below {!now}. *)

val pending : t -> int
(** Number of queued live events. Cancelled events are excluded, so
    this is a truthful queue-depth gauge. *)

val executed : t -> int
(** Total callbacks executed so far. *)

val queue_depth_hwm : t -> int
(** Highest {!pending} ever reached (lifetime high-water mark). *)

(** {1 Profiling hooks} *)

val set_metrics : ?labels:Obs.Metrics.labels -> ?wall:bool -> t -> Obs.Metrics.t -> unit
(** Install live profiling into [reg]: [scheduler.callbacks] counters
    labelled by [class], a [scheduler.queue_depth] gauge (its max is
    the high-water mark since attach), and — unless [wall] is [false] —
    a [scheduler.wall_s_per_sim_s] summary observed once per {!run}
    call. Wall-clock series are inherently nondeterministic; pass
    [~wall:false] when snapshots must be reproducible. [labels] are
    added to every series; when several schedulers report into
    registries that are merged later (the shards of a [Parsim] run),
    give each its own label, such as [("shard", "0")], or the merge
    raises [Invalid_argument] on the shared series names. *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish current absolute values ([scheduler.executed],
    [scheduler.pending], [scheduler.queue_depth_hwm]) into [reg];
    idempotent, intended to run once before a snapshot. *)
