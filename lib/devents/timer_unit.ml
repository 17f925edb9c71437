module Scheduler = Eventsim.Scheduler

type timer_id = int

type timer = {
  id : timer_id;
  period : int;
  mutable count : int;
  mutable cancelled : bool;
  mutable scheduled : int; (* nominal (unquantised) next firing instant *)
  mutable cb : unit -> unit; (* the one closure this timer ever allocates *)
}

type t = {
  sched : Scheduler.t;
  sink : Event.t -> unit;
  timers : (timer_id, timer) Hashtbl.t;
  mutable next_id : int;
  mutable last_fire : int;
}

let create ~sched ~sink () = { sched; sink; timers = Hashtbl.create 16; next_id = 0; last_fire = 0 }

let resolution = Eventsim.Sim_time.ns 100

(* Round an instant up to the next tick boundary. *)
let quantise at = (at + resolution - 1) / resolution * resolution

let fire t timer ~scheduled =
  if not timer.cancelled then begin
    timer.count <- timer.count + 1;
    t.last_fire <- Scheduler.now t.sched;
    t.sink
      (Event.Timer
         {
           id = timer.id;
           period = timer.period;
           scheduled;
           fired = Scheduler.now t.sched;
           count = timer.count;
         })
  end

let fresh t ~period =
  let id = t.next_id in
  t.next_id <- id + 1;
  let timer = { id; period; count = 0; cancelled = false; scheduled = 0; cb = (fun () -> ()) } in
  Hashtbl.replace t.timers id timer;
  timer

let add_periodic t ~period =
  if period <= 0 then invalid_arg "Timer_unit.add_periodic: period must be positive";
  let timer = fresh t ~period in
  timer.scheduled <- Scheduler.now t.sched + period;
  (* One closure for the timer's whole life: it re-posts itself with the
     advanced nominal instant instead of allocating a fresh closure per
     firing. A post queues the closure itself in a recycled ladder
     node, so a steady periodic timer allocates nothing per tick. *)
  timer.cb <-
    (fun () ->
      if not timer.cancelled then begin
        fire t timer ~scheduled:timer.scheduled;
        timer.scheduled <- timer.scheduled + timer.period;
        Scheduler.post ~cls:Scheduler.Timer t.sched ~at:(quantise timer.scheduled) timer.cb
      end);
  Scheduler.post ~cls:Scheduler.Timer t.sched ~at:(quantise timer.scheduled) timer.cb;
  timer.id

let cancel t id =
  match Hashtbl.find_opt t.timers id with
  | None -> ()
  | Some timer ->
      timer.cancelled <- true;
      Hashtbl.remove t.timers id

let last_fire_time t = t.last_fire
