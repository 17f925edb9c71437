(* E22 — resilience under handler faults: what supervision buys.

   One switch runs the §2 microburst detector while a seeded fault
   engine crashes its dequeue handler, burns its enqueue handler's
   watchdog budget, and injects periodic burst storms for load. The
   same scenario is replayed under four resilience configurations
   (legs):

   - fail-fast: the pre-supervision baseline — the first handler fault
     aborts the whole simulation;
   - drop-event: faults are absorbed, each costs one event, the handler
     stays subscribed;
   - quarantine: tripped handlers are unsubscribed and re-enabled after
     exponential backoff with seeded jitter (the default policy);
   - quarantine+shed: quarantine plus merger event shedding with an
     aggressive watermark, to show graceful degradation engaging.

   Every completed leg also runs the periodic invariant checker
   (packet conservation, buffer occupancy, timer monotonicity) in
   record mode and reports its verdicts. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Link = Tmgr.Link
module Traffic = Workloads.Traffic

let stop_at = Sim_time.ms 3
let burst_inject_port = 3

type leg = {
  label : string;
  policy : string;
  completed : bool;  (** the run finished without an uncaught exception *)
  failed_handler : string option;  (** who aborted a fail-fast run *)
  sent : int;
  burst_injected : int;
  received : int;
  link_lost : int;
  switch_dropped : int;
  balance : int;
  crashes : int;
  watchdog_trips : int;
  trips : int;
  recoveries : int;
  permanent_failures : int;
  dropped_events : int;
  shed_events : int;
  detections : int;
  invariant_passes : int;
  invariant_violations : int;
}

type result = { seed : int; legs : leg list }

let burst_template i =
  Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.host ~subnet:3 1)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 9)
    ~src_port:(4000 + (i mod 8))
    ~dst_port:80 ~payload_len:958 ()

(* One switch: dst host 1 on port 0, src host 0 on port 1. *)
let topo = Evcore.Topology.make ~switches:1 ~links:[] ~hosts:[ (0, 1); (0, 0) ]

(* Every fault process stops at [stop_at]; a completed leg drains long
   before [until], which [run_leg] checks. *)
let until = stop_at + Sim_time.ms 2

let run_leg ?metrics ~seed ~label ~policy ~shed () =
  let obs_labels = [ ("leg", label) ] in
  let det_spec, det =
    Apps.Microburst.program ~slots:256 ~threshold_bytes:15_000 ~out_port:(fun _ -> 0) ()
  in
  (* Make the program telemetry-heavy — also consuming transmitted and
     underflow events — so bursts genuinely cluster events at the
     merger and the shedding leg has overload to degrade under. *)
  let det_spec ctx =
    let p = det_spec ctx in
    {
      p with
      Evcore.Program.transmitted = Some (fun _ctx _ev -> ());
      underflow = Some (fun _ctx _ev -> ());
    }
  in
  let config =
    let base = Event_switch.default_config Arch.event_pisa_full in
    {
      base with
      Event_switch.resil =
        { (Resil.Supervisor.default_config ()) with Resil.Supervisor.policy };
      shed_watermark = shed;
      tm_config =
        {
          base.Event_switch.tm_config with
          Tmgr.Traffic_manager.port_rate_gbps = 2.5;
          buffer_bytes = 32_000;
        };
    }
  in
  (* Kept from [on_shard]: a fail-fast leg raises out of [Parsim.run]. *)
  let setup = ref None in
  let on_shard (ctx : Parsim.shard_ctx) =
    let sched = ctx.sched in
    (match metrics with
    | Some m -> Scheduler.set_metrics ~labels:obs_labels ~wall:false sched m
    | None -> ());
    let sw = List.assoc 0 ctx.switches and src = List.assoc 0 ctx.hosts in
    let traffic =
      Traffic.cbr ~sched
        ~flow:
          (Netcore.Flow.make
             ~src:(Netcore.Ipv4_addr.host ~subnet:1 1)
             ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
             ~src_port:7 ~dst_port:7 ())
        ~pkt_bytes:500 ~rate_gbps:1. ~stop:stop_at
        ~send:(fun pkt -> Host.send src pkt)
        ()
    in
    let engine = Faults.Engine.create ~sched ~seed ~stop:stop_at () in
    Faults.Engine.add_burst_storm engine ~name:"burst"
      ~plan:
        (Faults.Schedule.Periodic
           { start = Sim_time.us 150; period = Sim_time.us 250; jitter = Sim_time.us 100 })
      ~pkts_per_burst:60 ~pkt_bytes:1000 ~rate_gbps:10. ~template:burst_template
      ~inject:(fun pkt -> Event_switch.inject sw ~port:burst_inject_port pkt);
    Faults.Engine.add_handler_crash engine ~name:"handler-crash"
      ~plan:
        (Faults.Schedule.Periodic
           { start = Sim_time.us 200; period = Sim_time.us 300; jitter = Sim_time.us 50 })
      (Event_switch.handler_key sw Event.Buffer_dequeue);
    Faults.Engine.add_handler_slowdown engine ~name:"handler-slow"
      ~plan:
        (Faults.Schedule.Periodic
           { start = Sim_time.us 350; period = Sim_time.us 400; jitter = Sim_time.us 80 })
      ~steps:1_000_000
      (Event_switch.handler_key sw Event.Buffer_enqueue);
    let inv =
      Resil.Invariants.create ~sched ~policy:Resil.Invariants.Record ~period:(Sim_time.us 50) ()
    in
    Event_switch.invariant_checks sw inv;
    Resil.Invariants.start inv ~stop:stop_at;
    setup := Some (ctx, traffic, engine, inv)
  in
  let completed, failed_handler =
    match
      Parsim.run
        (Parsim.config ~until ~switch_config:(fun _ -> config) ~program:(fun _ -> det_spec)
           ~on_shard ())
        topo
    with
    | _ -> (true, None)
    | exception Resil.Supervisor.Failed (name, _) -> (false, Some name)
  in
  let ctx, traffic, engine, inv = Option.get !setup in
  if completed && Scheduler.next_time ctx.sched >= 0 then
    failwith (Printf.sprintf "E22: events still queued at %d ps" (Scheduler.next_time ctx.sched));
  let sw = List.assoc 0 ctx.switches in
  (match metrics with
  | Some m ->
      Scheduler.export_metrics ~labels:obs_labels ctx.sched m;
      Event_switch.export_metrics ~labels:obs_labels sw m;
      Faults.Engine.export_metrics ~labels:obs_labels engine m;
      Resil.Invariants.export_metrics ~labels:obs_labels inv m
  | None -> ());
  let sup = Event_switch.supervisor sw in
  let merger = Event_switch.merger sw in
  let link_lost = List.fold_left (fun acc (_, l) -> acc + Link.lost l) 0 ctx.links in
  let burst_injected =
    match List.assoc_opt "burst" (Faults.Engine.stats engine) with
    | Some c -> c.Faults.Engine.injected
    | None -> 0
  in
  let sent = Traffic.sent traffic in
  let received = List.fold_left (fun acc (_, h) -> acc + Host.received h) 0 ctx.hosts in
  let switch_dropped = Event_switch.packets_dropped sw in
  {
    label;
    policy = Resil.Policy.to_string policy;
    completed;
    failed_handler;
    sent;
    burst_injected;
    received;
    link_lost;
    switch_dropped;
    balance = sent + burst_injected - (received + link_lost + switch_dropped);
    crashes = Resil.Supervisor.crashes sup;
    watchdog_trips = Resil.Supervisor.watchdog_trips sup;
    trips = Resil.Supervisor.trips sup;
    recoveries = Resil.Supervisor.recoveries sup;
    permanent_failures = Resil.Supervisor.permanent_failures sup;
    dropped_events = Resil.Supervisor.dropped sup;
    shed_events = Devents.Event_merger.events_shed merger;
    detections = Apps.Microburst.detection_count det;
    invariant_passes = Resil.Invariants.passes inv;
    invariant_violations = Resil.Invariants.violations inv;
  }

let run ?metrics ?(seed = 42) () =
  let legs =
    [
      run_leg ?metrics ~seed ~label:"fail-fast" ~policy:Resil.Policy.Fail_fast ~shed:None ();
      run_leg ?metrics ~seed ~label:"drop-event" ~policy:Resil.Policy.Drop_event ~shed:None ();
      run_leg ?metrics ~seed ~label:"quarantine" ~policy:Resil.Policy.Quarantine ~shed:None ();
      run_leg ?metrics ~seed ~label:"quarantine+shed" ~policy:Resil.Policy.Quarantine
        ~shed:(Some 2) ();
    ]
  in
  { seed; legs }

let find_leg r label = List.find (fun l -> l.label = label) r.legs

let passes r =
  let ff = find_leg r "fail-fast" in
  let q = find_leg r "quarantine" in
  let qs = find_leg r "quarantine+shed" in
  (not ff.completed)
  && q.completed && q.trips > 0 && q.recoveries > 0 && q.balance = 0
  && q.invariant_violations = 0
  && qs.completed && qs.shed_events > 0 && qs.balance = 0

let print r =
  Report.section (Printf.sprintf "E22 / resilience — supervised handler execution (seed %d)" r.seed);
  Report.kv "scenario"
    (Printf.sprintf
       "microburst detector under handler crashes + watchdog slowdowns + burst storms, %.0f ms"
       (Sim_time.to_ms stop_at));
  Report.blank ();
  Report.table
    ~headers:[ "leg"; "done"; "crashes"; "wdog"; "trips"; "recov"; "ev-drop"; "shed"; "balance" ]
    ~rows:
      (List.map
         (fun l ->
           [
             l.label;
             (if l.completed then "yes" else "ABORT");
             string_of_int l.crashes;
             string_of_int l.watchdog_trips;
             string_of_int l.trips;
             string_of_int l.recoveries;
             string_of_int l.dropped_events;
             string_of_int l.shed_events;
             (if l.completed then string_of_int l.balance else "-");
           ])
         r.legs);
  Report.blank ();
  let ff = find_leg r "fail-fast" in
  let q = find_leg r "quarantine" in
  let qs = find_leg r "quarantine+shed" in
  (match ff.failed_handler with
  | Some h -> Report.kv "fail-fast aborted by handler" h
  | None -> ());
  Report.kv "invariant sweeps (quarantine leg)"
    (Printf.sprintf "%d passes, %d violations" q.invariant_passes q.invariant_violations);
  Report.blank ();
  Report.kv "supervision off dies on first fault" (if not ff.completed then "PASS" else "FAIL");
  Report.kv "quarantine survives the same faults"
    (if q.completed && q.trips > 0 then "PASS" else "FAIL");
  Report.kv "backoff re-enables tripped handlers" (if q.recoveries > 0 then "PASS" else "FAIL");
  Report.kv "packet conservation under quarantine" (if q.balance = 0 then "PASS" else "FAIL");
  Report.kv "runtime invariants hold" (if q.invariant_violations = 0 then "PASS" else "FAIL");
  Report.kv "shedding engages under overload" (if qs.shed_events > 0 then "PASS" else "FAIL")

let name = "resilience"
