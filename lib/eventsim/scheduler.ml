type cls =
  | Callback
  | Periodic
  | Workload
  | Link
  | Xlink
  | Merger_admit
  | Switch_decision
  | Tm_tx
  | Timer
  | Pktgen
  | Control
  | Fault
  | Netupd
  | Efsm_sweep
  | Resil_backoff
  | Resil_invariant

(* The ladder tag of a [post]ed event. Each constructor maps to its
   declaration rank, so the match compiles to the identity. *)
let cls_index = function
  | Callback -> 0
  | Periodic -> 1
  | Workload -> 2
  | Link -> 3
  | Xlink -> 4
  | Merger_admit -> 5
  | Switch_decision -> 6
  | Tm_tx -> 7
  | Timer -> 8
  | Pktgen -> 9
  | Control -> 10
  | Fault -> 11
  | Netupd -> 12
  | Efsm_sweep -> 13
  | Resil_backoff -> 14
  | Resil_invariant -> 15

(* The [class] label of each index's [scheduler.callbacks] series. *)
let cls_names =
  [|
    "callback";
    "periodic";
    "workload";
    "link";
    "xlink";
    "merger.admit";
    "switch.decision";
    "tm.tx";
    "timer";
    "pktgen";
    "control";
    "fault";
    "netupd";
    "pisa.efsm.sweep";
    "resil.backoff";
    "resil.invariant";
  |]

(* Tag of a [schedule]/[every] wrapper: it counts itself, and only
   when it finds its handle live. *)
let self_counted = -1

type prof = {
  reg : Obs.Metrics.t;
  enabled : bool ref; (* the registry's own flag, cached: one load to
                         skip the whole profiling block per event *)
  labels : Obs.Metrics.labels;
  wall : bool;
  depth : Obs.Metrics.Gauge.t;
  wall_per_sim : Obs.Metrics.Summary.t;
  by_cls : Obs.Metrics.Counter.t option array;
      (* by [cls_index]; a class's series is registered at its first
         executed event *)
}

type t = {
  queue : (unit -> unit) Ladder_queue.t;
  mutable clock : Sim_time.t;
  mutable executed : int;
  mutable live : int;
  mutable depth_hwm : int;
  mutable prof : prof option;
  mutable dispatch_cb : time:int -> tag:int -> (unit -> unit) -> unit;
      (* persistent drain callback (advance clock, count, fire): [run]
         and [drain_until_horizon] would otherwise rebuild this closure
         on every call *)
}

type handle = {
  owner : t;
  mutable queued : bool; (* its wrapper sits in the queue *)
  mutable cancelled : bool;
}

let now t = t.clock

let enqueue t ~time ~tag f =
  t.live <- t.live + 1;
  if t.live > t.depth_hwm then t.depth_hwm <- t.live;
  Ladder_queue.push t.queue ~time ~tag f;
  match t.prof with
  | Some p when !(p.enabled) -> Obs.Metrics.Gauge.set p.depth t.live
  | Some _ | None -> ()

(* One executed event of class index [ix]. *)
let count t ix =
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  match t.prof with
  | Some p when !(p.enabled) -> (
      match Array.unsafe_get p.by_cls ix with
      | Some c -> Obs.Metrics.Counter.incr c
      | None ->
          let c =
            Obs.Metrics.counter p.reg
              ~labels:(("class", cls_names.(ix)) :: p.labels)
              "scheduler.callbacks"
          in
          p.by_cls.(ix) <- Some c;
          Obs.Metrics.Counter.incr c)
  | Some _ | None -> ()

let post ?(cls = Callback) t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.post: at=%d is before now=%d" at t.clock);
  enqueue t ~time:at ~tag:(cls_index cls) f

let post_after ?cls t ~delay f =
  if delay < 0 then invalid_arg "Scheduler.post_after: negative delay";
  post ?cls t ~at:(t.clock + delay) f

let schedule ?(cls = Callback) t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule: at=%d is before now=%d" at t.clock);
  let h = { owner = t; queued = true; cancelled = false } in
  let ix = cls_index cls in
  enqueue t ~time:at ~tag:self_counted (fun () ->
      if not h.cancelled then begin
        h.queued <- false;
        count t ix;
        f ()
      end);
  h

let schedule_after ?cls t ~delay f =
  if delay < 0 then invalid_arg "Scheduler.schedule_after: negative delay";
  schedule ?cls t ~at:(t.clock + delay) f

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    if h.queued then h.owner.live <- h.owner.live - 1
  end

let every ?(cls = Periodic) t ?start ~period f =
  if period <= 0 then invalid_arg "Scheduler.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock + period in
  if first < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.every: start=%d is before now=%d" first t.clock);
  let h = { owner = t; queued = true; cancelled = false } in
  let ix = cls_index cls in
  let rec fire () =
    if not h.cancelled then begin
      h.queued <- false;
      count t ix;
      f ();
      if not h.cancelled then begin
        h.queued <- true;
        enqueue t ~time:(t.clock + period) ~tag:self_counted fire
      end
    end
  in
  enqueue t ~time:first ~tag:self_counted fire;
  h

let dispatch t ~time ~tag f =
  if time > t.clock then t.clock <- time;
  if tag <> self_counted then count t tag;
  f ()

let create () =
  let t =
    {
      queue = Ladder_queue.create ();
      clock = 0;
      executed = 0;
      live = 0;
      depth_hwm = 0;
      prof = None;
      dispatch_cb = (fun ~time:_ ~tag:_ _ -> ());
    }
  in
  t.dispatch_cb <- dispatch t;
  t

(* Allocation-free single step: peek the next time and tag as bare
   ints, then take the closure alone — no [Some (time, f)] tuple per
   event. *)
let step t =
  let time = Ladder_queue.next_time t.queue in
  if time < 0 then false
  else begin
    let tag = Ladder_queue.next_tag t.queue in
    dispatch t ~time ~tag (Ladder_queue.take t.queue);
    true
  end

(* Earliest queued timestamp as a bare int, negative when the queue is
   empty. A cancelled event still parks at its timestamp until popped,
   so the value is a conservative lower bound on the next live event —
   safe for horizon computations, which only ever need "no event before
   t". *)
let next_time t = Ladder_queue.next_time t.queue

let run ?until t =
  let wall0 =
    match t.prof with
    | Some p when p.wall && !(p.enabled) -> Some (Sys.time (), t.clock)
    | Some _ | None -> None
  in
  let executed0 = t.executed in
  let limit = match until with Some l -> l | None -> max_int in
  Ladder_queue.drain_upto t.queue ~limit t.dispatch_cb;
  (match until with Some limit when limit > t.clock -> t.clock <- limit | Some _ | None -> ());
  match (t.prof, wall0) with
  | Some p, Some (w0, sim0) ->
      let sim_s = Sim_time.to_sec (t.clock - sim0) in
      (* Observing a wall/sim ratio is only meaningful when the run
         actually dispatched work; a zero-event run measures nothing
         but [Sys.time] granularity. *)
      if t.executed > executed0 && sim_s > 0. then
        Obs.Metrics.Summary.observe p.wall_per_sim ((Sys.time () -. w0) /. sim_s)
  | (Some _ | None), _ -> ()

let drain_until_horizon t ~horizon =
  if horizon < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.drain_until_horizon: horizon=%d is before now=%d" horizon
         t.clock);
  let limit = horizon - 1 in
  Ladder_queue.drain_upto t.queue ~limit t.dispatch_cb;
  if horizon > t.clock then t.clock <- horizon

let pending t = t.live
let executed t = t.executed
let queue_depth_hwm t = t.depth_hwm

let set_metrics ?(labels = []) ?(wall = true) t reg =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  t.prof <-
    Some
      {
        reg;
        enabled = Obs.Metrics.on_ref reg;
        labels;
        wall;
        depth = Obs.Metrics.gauge reg ~labels "scheduler.queue_depth";
        wall_per_sim = Obs.Metrics.summary reg ~labels "scheduler.wall_s_per_sim_s";
        by_cls = Array.make (Array.length cls_names) None;
      }

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "scheduler.executed") t.executed;
    Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels "scheduler.pending") t.live;
    Obs.Metrics.Gauge.set
      (Obs.Metrics.gauge reg ~labels "scheduler.queue_depth_hwm")
      t.depth_hwm
  end
