(** Modeled control plane.

    Baseline architectures must delegate periodic work (sketch resets,
    probe generation, failure handling) to a CPU-side agent. The agent
    is not free: every operation pays the control-channel latency, a
    per-operation jitter (OS scheduling noise), and queues behind other
    operations under a bounded operation rate. The experiments compare
    these costs against native data-plane events.

    Defaults: 200 us one-way latency, 100k ops/s, 50 us jitter. *)

type t

val create :
  sched:Eventsim.Scheduler.t ->
  ?latency:Eventsim.Sim_time.t ->
  ?op_rate_per_sec:float ->
  ?jitter:Eventsim.Sim_time.t ->
  ?sup:Resil.Supervisor.t ->
  rng:Stats.Rng.t ->
  unit ->
  t
(** With [?sup] the agent registers a ["cp.op"] supervision key and
    every submitted operation runs under the guard, so a crashing
    control-plane callback is subject to the same policy as a
    data-plane handler. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue an operation: it executes on the device after channel
    latency + jitter + any queueing delay imposed by the op rate. *)

val periodic : t -> period:Eventsim.Sim_time.t -> (unit -> unit) -> Eventsim.Scheduler.handle
(** A CPU-side periodic task whose every firing is a submitted op (so
    each firing pays latency, jitter and rate limiting). *)

val notify : t -> (unit -> unit) -> unit
(** Device-to-CPU notification: runs the callback CPU-side after the
    channel latency (no rate limit — the device pushes). *)

val ops : t -> int
(** Operations executed on the device so far (a supervised op counts
    only when the guard let it run to completion). *)

val dropped_ops : t -> int
(** Supervised ops the guard refused (quarantined key) or absorbed
    after a crash — submitted but never completed on the device.
    [ops + dropped_ops] equals the number of submissions that have
    reached their execution time. *)

val notifications : t -> int

val pending : t -> int
(** Submitted ops whose execution time has not yet arrived. *)

val queue_depth_hwm : t -> int
(** High-water mark of {!pending} — the deepest the submit queue got. *)

val latency : t -> Eventsim.Sim_time.t

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish [cp.ops], [cp.dropped_ops], [cp.notifications] and
    [cp.queue_depth] (HWM gauge). Idempotent set-style export — call
    after (or periodically during) a run. *)
