(** Discrete-event simulation driver.

    Callbacks are executed in non-decreasing time order; ties run in
    schedule order. A callback may schedule further work, including at
    the current instant.

    Scheduling calls accept an optional callback class [?cls] (e.g.
    ["tm.tx"], ["timer"], ["workload"]), used only by the profiling
    hooks: with {!set_metrics} installed, per-class execution counts,
    the queue-depth high-water mark and wall-time per simulated second
    are recorded into an {!Obs.Metrics} registry. Without it (or with
    the registry disabled) the hooks cost one branch per event. *)

type t
type handle

val create : unit -> t
(** A scheduler at time 0 with an empty {!Ladder_queue}. *)

val now : t -> Sim_time.t

val schedule : ?cls:string -> t -> at:Sim_time.t -> (unit -> unit) -> handle
(** Scheduling in the past raises [Invalid_argument]. [cls] defaults to
    ["callback"]. *)

val schedule_after : ?cls:string -> t -> delay:Sim_time.t -> (unit -> unit) -> handle

val post : ?cls:string -> t -> at:Sim_time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no handle, so the event cannot be
    cancelled — which lets the scheduler recycle its internal cell
    through a free list instead of allocating one per event. Use it on
    hot paths that never cancel. Past times raise [Invalid_argument]
    like {!schedule}. *)

val post_after : ?cls:string -> t -> delay:Sim_time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_after}; see {!post}. *)

val cancel : handle -> unit
(** Cancelling an already-run or cancelled handle is a no-op. For a
    periodic handle, cancellation stops all future firings. Cancelled
    events leave {!pending} immediately (they still occupy a queue slot
    until their time comes, but are never executed). *)

val every : ?cls:string -> t -> ?start:Sim_time.t -> period:Sim_time.t -> (unit -> unit) -> handle
(** Fire at [start] (default: now + period) and then every [period]
    until cancelled. [cls] defaults to ["periodic"]. A [start] in the
    past raises [Invalid_argument], exactly like {!schedule}. *)

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
(** Timestamp of the earliest queued cell, or a negative value when the
    queue is empty. The earliest cell may be a cancelled event (it parks
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
    added to every series. *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish current absolute values ([scheduler.executed],
    [scheduler.pending], [scheduler.queue_depth_hwm]) into [reg];
    idempotent, intended to run once before a snapshot. *)
