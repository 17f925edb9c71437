module Link = Tmgr.Link

type counts = { injected : int; absorbed : int; dropped : int }

type cell = {
  mutable c_injected : int;
  mutable c_absorbed : int;
  mutable c_dropped : int;
}

type t = {
  sched : Eventsim.Scheduler.t;
  rng : Stats.Rng.t;
  stop : Eventsim.Sim_time.t;
  classes : (string, cell) Hashtbl.t;
  mutable link_list : (string * Link.t) list; (* registration order, newest first *)
}

let create ~sched ~seed ~stop () =
  {
    sched;
    rng = Stats.Rng.create ~seed;
    stop;
    classes = Hashtbl.create 8;
    link_list = [];
  }

let cell t name =
  match Hashtbl.find_opt t.classes name with
  | Some c -> c
  | None ->
      let c = { c_injected = 0; c_absorbed = 0; c_dropped = 0 } in
      Hashtbl.add t.classes name c;
      c

let add_link_flaps t ~name ~plan ?down_for ?down_jitter link =
  let c = cell t name in
  let rng = Stats.Rng.split t.rng in
  Flapper.attach ~sched:t.sched ~rng ~stop:t.stop ~plan ?down_for ?down_jitter
    ~on_flap:(fun ~effective ->
      if effective then c.c_injected <- c.c_injected + 1
      else c.c_absorbed <- c.c_absorbed + 1)
    link;
  t.link_list <- (name, link) :: t.link_list

let add_perturbation t ~name ~config link =
  let c = cell t name in
  let rng = Stats.Rng.split t.rng in
  Perturb.attach ~rng
    ~on_decision:(fun verdict ->
      match verdict with
      | Link.Deliver -> c.c_absorbed <- c.c_absorbed + 1
      | Link.Drop ->
          c.c_injected <- c.c_injected + 1;
          c.c_dropped <- c.c_dropped + 1
      | Link.Delay _ | Link.Duplicate _ -> c.c_injected <- c.c_injected + 1)
    config link;
  t.link_list <- (name, link) :: t.link_list

let add_burst_storm t ~name ~plan ~pkts_per_burst ~pkt_bytes ~rate_gbps ~template ~inject =
  let c = cell t name in
  let rng = Stats.Rng.split t.rng in
  Burst.attach ~sched:t.sched ~rng ~stop:t.stop ~plan ~pkts_per_burst ~pkt_bytes ~rate_gbps
    ~template ~inject
    ~on_packet:(fun () -> c.c_injected <- c.c_injected + 1)
    ()

let add_handler_fault t ~name ~plan ~kind key =
  let c = cell t name in
  let rng = Stats.Rng.split t.rng in
  Handler_fault.attach ~sched:t.sched ~rng ~stop:t.stop ~plan ~kind ~key
    ~on:(fun ~armed ->
      if armed then c.c_injected <- c.c_injected + 1 else c.c_absorbed <- c.c_absorbed + 1)
    ()

let add_handler_crash t ~name ~plan key =
  add_handler_fault t ~name ~plan ~kind:Handler_fault.Crash key

let add_handler_slowdown t ~name ~plan ~steps key =
  add_handler_fault t ~name ~plan ~kind:(Handler_fault.Slowdown steps) key

let add_churn t ~name ~plan ~ops =
  let c = cell t name in
  let rng = Stats.Rng.split t.rng in
  Churn.attach ~sched:t.sched ~rng ~stop:t.stop ~plan ~ops
    ~on_op:(fun _ -> c.c_injected <- c.c_injected + 1)
    ()

let stats t =
  Hashtbl.fold
    (fun name c acc ->
      (name, { injected = c.c_injected; absorbed = c.c_absorbed; dropped = c.c_dropped })
      :: acc)
    t.classes []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_injected t =
  Hashtbl.fold (fun _ c acc -> acc + c.c_injected) t.classes 0

let links t = List.rev t.link_list

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    List.iter
      (fun (name, c) ->
        let labels = ("fault", name) :: labels in
        Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "faults.injected") c.injected;
        Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "faults.absorbed") c.absorbed;
        Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "faults.dropped") c.dropped)
      (stats t);
    List.iter
      (fun (name, link) ->
        let labels = ("fault", name) :: labels in
        let set n v = Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels n) v in
        set "faults.link.perturb_drops" (Link.perturb_drops link);
        set "faults.link.perturb_dups" (Link.perturb_dups link);
        set "faults.link.perturb_delays" (Link.perturb_delays link);
        set "faults.link.stale_notifications" (Link.stale_notifications link);
        set "faults.link.lost" (Link.lost link))
      (links t)
  end
