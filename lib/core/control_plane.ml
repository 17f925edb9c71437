module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

type t = {
  sched : Scheduler.t;
  latency : int;
  min_gap : int; (* picoseconds between op executions *)
  jitter : int;
  rng : Stats.Rng.t;
  mutable next_free : int;
  mutable ops : int;
  mutable dropped_ops : int;
  mutable notifications : int;
  mutable pending : int;
  mutable queue_depth_hwm : int;
  guard : (Resil.Supervisor.t * Resil.Supervisor.key) option;
}

let create ~sched ?(latency = Sim_time.us 200) ?(op_rate_per_sec = 100_000.)
    ?(jitter = Sim_time.us 50) ?sup ~rng () =
  if op_rate_per_sec <= 0. then invalid_arg "Control_plane.create: op rate must be positive";
  {
    sched;
    latency;
    min_gap = int_of_float (1e12 /. op_rate_per_sec);
    jitter;
    rng;
    next_free = 0;
    ops = 0;
    dropped_ops = 0;
    notifications = 0;
    pending = 0;
    queue_depth_hwm = 0;
    guard =
      (match sup with
      | None -> None
      | Some s -> Some (s, Resil.Supervisor.register s ~name:"cp.op" ()));
  }

let submit t f =
  let now = Scheduler.now t.sched in
  let j = if t.jitter > 0 then Stats.Rng.int t.rng t.jitter else 0 in
  let exec_at = max (now + t.latency + j) t.next_free in
  t.next_free <- exec_at + t.min_gap;
  t.pending <- t.pending + 1;
  if t.pending > t.queue_depth_hwm then t.queue_depth_hwm <- t.pending;
  Scheduler.post ~cls:Scheduler.Control t.sched ~at:exec_at (fun () ->
      t.pending <- t.pending - 1;
      match t.guard with
      | None ->
          t.ops <- t.ops + 1;
          f ()
      | Some (s, key) ->
          (* A [false] return means the supervisor refused the op
             (quarantined / permanently failed key) or the op crashed
             and the policy absorbed it — either way the device never
             completed it, so it counts as dropped, not executed. *)
          if Resil.Supervisor.protect s key f then t.ops <- t.ops + 1
          else t.dropped_ops <- t.dropped_ops + 1)

let periodic t ~period f =
  Scheduler.every ~cls:Scheduler.Control t.sched ~period (fun () -> submit t f)

let notify t f =
  t.notifications <- t.notifications + 1;
  Scheduler.post_after ~cls:Scheduler.Control t.sched ~delay:t.latency f

let ops t = t.ops
let dropped_ops t = t.dropped_ops
let notifications t = t.notifications
let pending t = t.pending
let queue_depth_hwm t = t.queue_depth_hwm
let latency t = t.latency

let export_metrics ?(labels = []) t reg =
  let open Obs.Metrics in
  Counter.set (counter reg ~labels "cp.ops") t.ops;
  Counter.set (counter reg ~labels "cp.dropped_ops") t.dropped_ops;
  Counter.set (counter reg ~labels "cp.notifications") t.notifications;
  Gauge.set (gauge reg ~labels "cp.queue_depth") t.queue_depth_hwm
