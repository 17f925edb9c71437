type cell = {
  mutable cancelled : bool;
  mutable callback : unit -> unit;
  mutable queued : bool;
  mutable cls : string;
  live : int ref; (* the owning scheduler's live-event count *)
  pooled : bool; (* fire-and-forget cell, recycled after firing *)
  mutable free_next : cell; (* free-list link, meaningful while recycled *)
}

type handle = cell

let noop () = ()

(* Free-list terminator. [cell] is monomorphic, so a plain shared record
   works; its fields are never mutated (alloc/release test identity
   first). *)
let rec nil_cell =
  {
    cancelled = true;
    callback = noop;
    queued = false;
    cls = "";
    live = ref 0;
    pooled = false;
    free_next = nil_cell;
  }

type prof = {
  reg : Obs.Metrics.t;
  enabled : bool ref; (* the registry's own flag, cached: one load to
                         skip the whole profiling block per event *)
  labels : Obs.Metrics.labels;
  wall : bool;
  depth : Obs.Metrics.Gauge.t;
  wall_per_sim : Obs.Metrics.Summary.t;
  by_cls : (string, Obs.Metrics.Counter.t) Hashtbl.t;
}

type t = {
  queue : cell Ladder_queue.t;
  mutable clock : Sim_time.t;
  mutable executed : int;
  live : int ref;
  mutable depth_hwm : int;
  mutable free : cell; (* pool of recycled fire-and-forget cells *)
  mutable prof : prof option;
  mutable dispatch_cb : time:int -> cell -> unit;
      (* persistent drain callback (advance clock, fire): [run] and
         [drain_until_horizon] would otherwise rebuild this closure on
         every call *)
}

let now t = t.clock

(* {2 Cell pool}

   Only [post]/[post_after] cells are pooled: they expose no handle, so
   no stale [cancel] can reach a recycled cell. [schedule]/[every] cells
   escape to the caller and are left to the GC. Recycled cells drop
   their callback and class so a parked cell never pins a closure (and
   transitively a packet) across the pool. *)

let alloc_cell t ~cls f =
  let c = t.free in
  if c == nil_cell then
    {
      cancelled = false;
      callback = f;
      queued = false;
      cls;
      live = t.live;
      pooled = true;
      free_next = nil_cell;
    }
  else begin
    t.free <- c.free_next;
    c.free_next <- nil_cell;
    c.cancelled <- false;
    c.callback <- f;
    c.cls <- cls;
    c
  end

let release_cell t c =
  c.callback <- noop;
  c.cls <- "";
  c.free_next <- t.free;
  t.free <- c

let enqueue_cell t ~time cell =
  cell.queued <- true;
  incr t.live;
  if !(t.live) > t.depth_hwm then t.depth_hwm <- !(t.live);
  Ladder_queue.push t.queue ~time cell;
  match t.prof with
  | Some p when !(p.enabled) -> Obs.Metrics.Gauge.set p.depth !(t.live)
  | Some _ | None -> ()

let schedule ?(cls = "callback") t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule: at=%d is before now=%d" at t.clock);
  let cell =
    {
      cancelled = false;
      callback = f;
      queued = false;
      cls;
      live = t.live;
      pooled = false;
      free_next = nil_cell;
    }
  in
  enqueue_cell t ~time:at cell;
  cell

let schedule_after ?cls t ~delay f =
  if delay < 0 then invalid_arg "Scheduler.schedule_after: negative delay";
  schedule ?cls t ~at:(t.clock + delay) f

let post ?(cls = "callback") t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.post: at=%d is before now=%d" at t.clock);
  enqueue_cell t ~time:at (alloc_cell t ~cls f)

let post_after ?cls t ~delay f =
  if delay < 0 then invalid_arg "Scheduler.post_after: negative delay";
  post ?cls t ~at:(t.clock + delay) f

let cancel cell =
  if not cell.cancelled then begin
    cell.cancelled <- true;
    if cell.queued then decr cell.live
  end

let every ?(cls = "periodic") t ?start ~period f =
  if period <= 0 then invalid_arg "Scheduler.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock + period in
  if first < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.every: start=%d is before now=%d" first t.clock);
  let cell =
    {
      cancelled = false;
      callback = noop;
      queued = false;
      cls;
      live = t.live;
      pooled = false;
      free_next = nil_cell;
    }
  in
  let rec fire () =
    if not cell.cancelled then begin
      f ();
      if not cell.cancelled then begin
        cell.callback <- fire;
        enqueue_cell t ~time:(t.clock + period) cell
      end
    end
  in
  cell.callback <- fire;
  enqueue_cell t ~time:first cell;
  cell

let cls_counter p cls =
  match Hashtbl.find_opt p.by_cls cls with
  | Some c -> c
  | None ->
      let c =
        Obs.Metrics.counter p.reg ~labels:(("class", cls) :: p.labels) "scheduler.callbacks"
      in
      Hashtbl.add p.by_cls cls c;
      c

(* Execute one popped cell. Pooled cells are released back to the pool
   before their callback runs, so a [post] made inside the callback can
   reuse the very same cell. *)
let fire t cell =
  cell.queued <- false;
  if not cell.cancelled then begin
    decr t.live;
    t.executed <- t.executed + 1;
    (match t.prof with
    | Some p when !(p.enabled) -> Obs.Metrics.Counter.incr (cls_counter p cell.cls)
    | Some _ | None -> ());
    if cell.pooled then begin
      let f = cell.callback in
      release_cell t cell;
      f ()
    end
    else cell.callback ()
  end
  else if cell.pooled then release_cell t cell

let create () =
  let t =
    {
      queue = Ladder_queue.create ();
      clock = 0;
      executed = 0;
      live = ref 0;
      depth_hwm = 0;
      free = nil_cell;
      prof = None;
      dispatch_cb = (fun ~time:_ _ -> ());
    }
  in
  t.dispatch_cb <-
    (fun ~time cell ->
      if time > t.clock then t.clock <- time;
      fire t cell);
  t

(* Allocation-free single step: peek the next time as a bare int, then
   take the payload alone — no [Some (time, cell)] tuple per event. *)
let step t =
  let time = Ladder_queue.next_time t.queue in
  if time < 0 then false
  else begin
    let cell = Ladder_queue.take t.queue in
    if time > t.clock then t.clock <- time;
    fire t cell;
    true
  end

(* Earliest queued timestamp as a bare int, negative when the queue is
   empty. A cancelled cell still parks at its timestamp until popped, so
   the value is a conservative lower bound on the next live event — safe
   for horizon computations, which only ever need "no event before t". *)
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

let pending t = !(t.live)
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
        by_cls = Hashtbl.create 16;
      }

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "scheduler.executed") t.executed;
    Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels "scheduler.pending") !(t.live);
    Obs.Metrics.Gauge.set
      (Obs.Metrics.gauge reg ~labels "scheduler.queue_depth_hwm")
      t.depth_hwm
  end
