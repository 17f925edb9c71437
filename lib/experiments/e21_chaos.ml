(* E21 — chaos: microburst detection + fast re-route under seeded
   fault injection (the robustness face of the paper's Table 1 failure
   events).

   Topology (E12's): src host -> switch A -> {primary | backup} ->
   switch B -> dst host.  Switch A runs the event-driven fast-reroute
   program; switch B runs the microburst detector (all traffic routed
   to the host port, which is slower than the core links, so bursts
   queue there).  A seeded [Faults.Engine] then subjects the run to one
   of three profiles:

   - flaky-links: Poisson link flaps on the primary plus packet
     drop/duplicate/delay perturbations on both core links;
   - burst-storm: line-rate packet bursts injected at switch A,
     overflowing switch B's shared buffer;
   - churn: control-plane register writes, handler de/re-registration
     and CP packet injections against both switches;
   - handler-faults: injected crashes into the detector's dequeue
     handler and watchdog-busting slowdowns into its enqueue handler,
     exercising the supervision layer's quarantine/backoff path.

   Graceful-degradation claims checked: packet conservation holds to
   the unit under every profile (nothing is silently created or lost),
   the final routing state agrees with the final link state (the
   epoch-tagged status notifications of Tmgr.Link), traffic keeps
   flowing, and the targeted fault class demonstrably fired. *)

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
let rate_gbps = 1.
let primary_port = 1
let backup_port = 2
let burst_inject_port = 3

type result = {
  profile : string;
  seed : int;
  sent : int;  (** CBR packets from the source host *)
  burst_injected : int;
  cp_injected : int;
  duplicated : int;
  received : int;  (** delivered to either host *)
  link_lost : int;
  switch_dropped : int;
  balance : int;  (** conservation residue; 0 = nothing unaccounted *)
  flaps : int;
  stale_notifications : int;
  overflow_events : int;
  control_handled : int;
  subscription_toggles : int;
  detections : int;
  handler_trips : int;
  handler_recoveries : int;
  failover_latency_ns : float option;
  final_consistent : bool;
      (** routing state agrees with primary-link state after the dust settles *)
  faults : (string * Faults.Engine.counts) list;
}

(* Switch B's program: the §2 microburst detector, extended with a
   control-event handler that writes the event's argument into a config
   register — the "register writes mid-flight" half of the churn
   profile. *)
let detector_program ~slots ~threshold_bytes () =
  let spec, det = Apps.Microburst.program ~slots ~threshold_bytes ~out_port:(fun _ -> 0) () in
  let spec ctx =
    let p = spec ctx in
    let cfg = Evcore.Program.shared_register ctx ~name:"chaos_cfg" ~entries:16 ~width:32 in
    {
      p with
      Evcore.Program.control =
        Some
          (fun _ctx (ev : Event.control_event) ->
            Devents.Shared_register.write cfg (ev.Event.opcode land 15) ev.Event.arg);
    }
  in
  (spec, det)

(* One culprit flow, so its exact occupancy crosses the detector's
   threshold and the storm overflows the small shared buffer. *)
let burst_template i =
  Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.host ~subnet:3 1)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 9)
    ~src_port:(4000 + (i mod 8))
    ~dst_port:80 ~payload_len:958 ()

let cp_probe i =
  Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.host ~subnet:9 1)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 9)
    ~src_port:(5000 + (i mod 4))
    ~dst_port:7 ~payload_len:22 ()

(* E12's topology: A's ports 1 (primary) and 2 (backup) face B's; src
   host 0 sits on A's port 0, dst host 1 on B's. *)
let topo =
  Evcore.Topology.make ~switches:2
    ~links:[ ((0, primary_port), (1, primary_port)); ((0, backup_port), (1, backup_port)) ]
    ~hosts:[ (0, 0); (1, 0) ]

(* Every fault process stops at [stop_at]; the run drains long before
   [until], which [run] checks. *)
let until = stop_at + Sim_time.ms 2

let run ?metrics ?(seed = 42) ?(profile = Faults.Profile.Flaky_links) () =
  let obs_labels = [ ("variant", Faults.Profile.to_string profile) ] in
  (* Switch A: fast re-route. *)
  let frr_spec, frr = Apps.Fast_reroute.program ~mode:Apps.Fast_reroute.Event_driven
      ~primary:primary_port ~backup:backup_port ()
  in
  (* Switch B: microburst detector; host port at 2.5 Gb/s and a small
     shared buffer so storms actually queue and overflow. *)
  let det_spec, det = detector_program ~slots:256 ~threshold_bytes:15_000 () in
  let switch_config sw =
    let base = Event_switch.default_config Arch.event_pisa_full in
    if sw = 0 then base
    else
      {
        base with
        Event_switch.tm_config =
          {
            base.Event_switch.tm_config with
            Tmgr.Traffic_manager.port_rate_gbps = 2.5;
            buffer_bytes = 32_000;
          };
      }
  in
  let engine = ref None in
  let on_shard (ctx : Parsim.shard_ctx) =
    let sched = ctx.sched in
    (match metrics with
    | Some m -> Scheduler.set_metrics ~labels:obs_labels ~wall:false sched m
    | None -> ());
    let sw_a = List.assoc 0 ctx.switches and sw_b = List.assoc 1 ctx.switches in
    let primary = List.assoc 0 ctx.links and backup = List.assoc 1 ctx.links in
    let src = List.assoc 0 ctx.hosts in
    (* Base traffic. *)
    ignore
      (Traffic.cbr ~sched
         ~flow:
           (Netcore.Flow.make
              ~src:(Netcore.Ipv4_addr.host ~subnet:1 1)
              ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
              ~src_port:7 ~dst_port:7 ())
         ~pkt_bytes:500 ~rate_gbps ~stop:stop_at
         ~send:(fun pkt -> Host.send src pkt)
         ()
        : Traffic.t);
    (* Fault processes per profile. *)
    let eng = Faults.Engine.create ~sched ~seed ~stop:stop_at () in
    engine := Some eng;
    let cp_count = ref 0 in
    match profile with
    | Faults.Profile.Flaky_links ->
        Faults.Engine.add_link_flaps eng ~name:"link-flap"
          ~plan:(Faults.Schedule.Poisson { start = Sim_time.us 200; rate_per_sec = 2500. })
          ~down_for:(Sim_time.us 80) ~down_jitter:(Sim_time.us 40) primary;
        let perturb =
          Faults.Perturb.lossy ~drop_p:0.02 ~dup_p:0.01 ~delay_p:0.03
            ~max_extra_delay:(Sim_time.us 5) ()
        in
        Faults.Engine.add_perturbation eng ~name:"perturb" ~config:perturb primary;
        Faults.Engine.add_perturbation eng ~name:"perturb" ~config:perturb backup
    | Faults.Profile.Burst_storm ->
        Faults.Engine.add_burst_storm eng ~name:"burst"
          ~plan:
            (Faults.Schedule.Periodic
               { start = Sim_time.us 150; period = Sim_time.us 250; jitter = Sim_time.us 100 })
          ~pkts_per_burst:60 ~pkt_bytes:1000 ~rate_gbps:10. ~template:burst_template
          ~inject:(fun pkt -> Event_switch.inject sw_a ~port:burst_inject_port pkt)
    | Faults.Profile.Churn ->
        let op_rng = Stats.Rng.create ~seed:(seed lxor 0x5eed) in
        let ops =
          [|
            ( "register-write",
              fun () ->
                Event_switch.control_event sw_b ~opcode:(Stats.Rng.int op_rng 64)
                  ~arg:(Stats.Rng.int op_rng 1_000_000) );
            ( "register-write-a",
              fun () ->
                Event_switch.control_event sw_a ~opcode:(Stats.Rng.int op_rng 64)
                  ~arg:(Stats.Rng.int op_rng 1_000_000) );
            ( "handler-rereg",
              fun () ->
                (* De-register the detector's dequeue handler, re-register
                   shortly after: mid-flight handler churn. *)
                Event_switch.set_subscribed sw_b Event.Buffer_dequeue false;
                ignore
                  (Scheduler.schedule_after ~cls:Scheduler.Fault sched ~delay:(Sim_time.us 20)
                     (fun () -> Event_switch.set_subscribed sw_b Event.Buffer_dequeue true)) );
            ( "cp-inject",
              fun () ->
                incr cp_count;
                Event_switch.inject_from_control_plane sw_a (cp_probe !cp_count) );
          |]
        in
        Faults.Engine.add_churn eng ~name:"churn"
          ~plan:
            (Faults.Schedule.Periodic
               { start = Sim_time.us 100; period = Sim_time.us 50; jitter = Sim_time.us 25 })
          ~ops
    | Faults.Profile.Handler_faults ->
        (* Crash the detector's dequeue handler and slow its enqueue
           handler past the watchdog budget; under the default Quarantine
           policy both should trip, back off and recover repeatedly
           within the 3 ms run. *)
        Faults.Engine.add_handler_crash eng ~name:"handler-crash"
          ~plan:
            (Faults.Schedule.Periodic
               { start = Sim_time.us 200; period = Sim_time.us 300; jitter = Sim_time.us 50 })
          (Event_switch.handler_key sw_b Event.Buffer_dequeue);
        Faults.Engine.add_handler_slowdown eng ~name:"handler-slow"
          ~plan:
            (Faults.Schedule.Periodic
               { start = Sim_time.us 350; period = Sim_time.us 400; jitter = Sim_time.us 80 })
          ~steps:1_000_000
          (Event_switch.handler_key sw_b Event.Buffer_enqueue)
  in
  let r =
    Parsim.run
      (Parsim.config ~until ~switch_config
         ~program:(fun sw -> if sw = 0 then frr_spec else det_spec)
         ~on_shard ())
      topo
  in
  let ctx = r.ctxs.(0) and engine = Option.get !engine in
  if Scheduler.next_time ctx.sched >= 0 then
    failwith (Printf.sprintf "E21: events still queued at %d ps" (Scheduler.next_time ctx.sched));
  let sw_a = List.assoc 0 ctx.switches and sw_b = List.assoc 1 ctx.switches in
  (match metrics with
  | Some m ->
      Scheduler.export_metrics ~labels:obs_labels ctx.sched m;
      Event_switch.export_metrics ~labels:obs_labels sw_a m;
      Event_switch.export_metrics ~labels:obs_labels sw_b m;
      Faults.Engine.export_metrics ~labels:obs_labels engine m
  | None -> ());
  let links = List.map snd ctx.links and primary = List.assoc 0 ctx.links in
  let link_lost = List.fold_left (fun acc l -> acc + Link.lost l) 0 links in
  let duplicated = List.fold_left (fun acc l -> acc + Link.perturb_dups l) 0 links in
  let stale = List.fold_left (fun acc l -> acc + Link.stale_notifications l) 0 links in
  let faults = Faults.Engine.stats engine in
  let burst_injected =
    match List.assoc_opt "burst" faults with
    | Some c -> c.Faults.Engine.injected
    | None -> 0
  in
  let flaps =
    match List.assoc_opt "link-flap" faults with
    | Some c -> c.Faults.Engine.injected
    | None -> 0
  in
  let sent = r.host_sent.(0) in
  let cp_injected = Event_switch.cp_injections sw_a + Event_switch.cp_injections sw_b in
  let received = r.host_received.(0) + r.host_received.(1) in
  let switch_dropped = Event_switch.packets_dropped sw_a + Event_switch.packets_dropped sw_b in
  let balance =
    sent + burst_injected + cp_injected + duplicated
    - (received + link_lost + switch_dropped)
  in
  {
    profile = Faults.Profile.to_string profile;
    seed;
    sent;
    burst_injected;
    cp_injected;
    duplicated;
    received;
    link_lost;
    switch_dropped;
    balance;
    flaps;
    stale_notifications = stale;
    overflow_events =
      Event_switch.fired sw_a Event.Buffer_overflow + Event_switch.fired sw_b Event.Buffer_overflow;
    control_handled =
      Event_switch.handled sw_a Event.Control_plane + Event_switch.handled sw_b Event.Control_plane;
    subscription_toggles = Event_switch.subscription_toggles sw_b;
    detections = Apps.Microburst.detection_count det;
    handler_trips =
      Resil.Supervisor.trips (Event_switch.supervisor sw_a)
      + Resil.Supervisor.trips (Event_switch.supervisor sw_b);
    handler_recoveries =
      Resil.Supervisor.recoveries (Event_switch.supervisor sw_a)
      + Resil.Supervisor.recoveries (Event_switch.supervisor sw_b);
    failover_latency_ns =
      Option.map (fun t -> Sim_time.to_ns t) (Apps.Fast_reroute.failover_time frr);
    final_consistent = Apps.Fast_reroute.using_backup frr = not (Link.is_up primary);
    faults;
  }

let exercised r =
  match r.profile with
  | "flaky-links" -> r.flaps > 0 && r.link_lost > 0
  | "burst-storm" -> r.burst_injected > 0 && r.overflow_events > 0
  | "churn" -> r.control_handled > 0 && r.subscription_toggles > 0 && r.cp_injected > 0
  | "handler-faults" -> r.handler_trips > 0 && r.handler_recoveries > 0
  | _ -> false

let print r =
  Report.section
    (Printf.sprintf "E21 / chaos — fault injection (profile %s, seed %d)" r.profile r.seed);
  Report.kv "scenario"
    (Printf.sprintf
       "%.0f Gb/s CBR through FRR switch + microburst detector, %.0f ms under faults"
       rate_gbps (Sim_time.to_ms stop_at));
  Report.blank ();
  Report.table
    ~headers:[ "fault class"; "injected"; "absorbed"; "dropped" ]
    ~rows:
      (List.map
         (fun (name, c) ->
           [
             name;
             string_of_int c.Faults.Engine.injected;
             string_of_int c.Faults.Engine.absorbed;
             string_of_int c.Faults.Engine.dropped;
           ])
         r.faults);
  Report.blank ();
  Report.kv "packets in (sent+burst+cp+dup)"
    (Printf.sprintf "%d+%d+%d+%d" r.sent r.burst_injected r.cp_injected r.duplicated);
  Report.kv "packets out (rcvd+lost+dropped)"
    (Printf.sprintf "%d+%d+%d" r.received r.link_lost r.switch_dropped);
  Report.kv "flaps / stale notifications suppressed"
    (Printf.sprintf "%d / %d" r.flaps r.stale_notifications);
  Report.kv "overflow events / detections"
    (Printf.sprintf "%d / %d" r.overflow_events r.detections);
  Report.kv "handler trips / backoff recoveries"
    (Printf.sprintf "%d / %d" r.handler_trips r.handler_recoveries);
  (match r.failover_latency_ns with
  | Some l -> Report.kv "first failover" (Report.ns l)
  | None -> ());
  Report.blank ();
  Report.kv "packet conservation holds" (if r.balance = 0 then "PASS" else "FAIL");
  Report.kv "routing state consistent with link state"
    (if r.final_consistent then "PASS" else "FAIL");
  Report.kv "traffic still flows under chaos" (if r.received > 0 then "PASS" else "FAIL");
  Report.kv "targeted fault class exercised" (if exercised r then "PASS" else "FAIL")

let name = "chaos"
