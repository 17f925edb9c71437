(* E2 — Table 2: application classes and the events they use.

   Each of the paper's five application classes is represented by the
   implemented applications; a short scenario runs each and the
   switch's per-class delivery counters record which data-plane events
   the programs actually consumed. The printed matrix puts the
   measured event set next to the paper's "Events Used" column. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Traffic = Workloads.Traffic

type class_row = {
  class_name : string;
  examples : string;
  paper_events : string;
  measured : Event.cls list;
}

type result = { rows : class_row list }

(* The event classes Table 2's "Events Used" column draws from. *)
let reportable =
  [
    Event.Buffer_enqueue;
    Event.Buffer_dequeue;
    Event.Buffer_overflow;
    Event.Buffer_underflow;
    Event.Packet_transmitted;
    Event.Timer_expiration;
    Event.Link_status_change;
    Event.Control_plane;
    Event.User_event;
    Event.Generated_packet;
  ]

let measured_of switches =
  List.filter
    (fun cls -> List.exists (fun sw -> Event_switch.handled sw cls > 0) switches)
    reportable

let mk_flow i =
  Netcore.Flow.make
    ~src:(Netcore.Ipv4_addr.host ~subnet:1 i)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 i)
    ~src_port:(1000 + i) ~dst_port:80 ()

let single_switch_run ?(tm_config = Tmgr.Traffic_manager.default_config) ~spec ~drive () =
  let sched = Scheduler.create () in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let config = { config with Event_switch.tm_config } in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  for p = 0 to 3 do
    Event_switch.set_port_tx sw ~port:p (fun _ -> ())
  done;
  drive sched sw;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  sw

let drive_cbr ?(flows = 3) ?(rate_gbps = 2.) sched sw =
  for i = 0 to flows - 1 do
    ignore
      (Traffic.cbr ~sched ~flow:(mk_flow i) ~pkt_bytes:500 ~rate_gbps
         ~stop:(Sim_time.us 800)
         ~send:(fun pkt -> Event_switch.inject sw ~port:(i mod 3) pkt)
         ())
  done

(* Runs [topo] sequentially on default event switches and returns
   them in id order. *)
let fabric_run ~until ~program ~on_shard topo =
  let r =
    Parsim.run
      (Parsim.config ~until
         ~switch_config:(fun _ -> Event_switch.default_config Arch.event_pisa_full)
         ~program ~on_shard ())
      topo
  in
  List.map snd r.ctxs.(0).switches

(* Congestion-aware forwarding: HULA on a small fabric. *)
let congestion_aware () =
  let hula =
    Apps.Hula.create
      {
        Apps.Hula.default_params with
        Apps.Hula.num_leaves = 2;
        num_spines = 2;
        hosts_per_leaf = 1;
        probe_period = Sim_time.us 50;
        util_period = Sim_time.us 50;
      }
      Apps.Hula.Event_driven
  in
  fabric_run ~until:(Sim_time.ms 1) ~program:(Apps.Hula.program hula)
    ~on_shard:(fun ctx ->
      ignore
        (Traffic.cbr ~sched:ctx.sched
           ~flow:
             (Netcore.Flow.make
                ~src:(Netcore.Ipv4_addr.host ~subnet:0 0)
                ~dst:(Netcore.Ipv4_addr.host ~subnet:1 0)
                ~src_port:5000 ~dst_port:6000 ())
           ~pkt_bytes:1000 ~rate_gbps:2. ~stop:(Sim_time.us 800)
           ~send:(fun pkt -> Evcore.Host.send (List.assoc 0 ctx.hosts) pkt)
           ()
          : Traffic.t))
    (Evcore.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1)

(* Network management: fast re-route across a link failure plus
   liveness monitoring. *)
let network_management () =
  let spec_frr, _ = Apps.Fast_reroute.program ~mode:Apps.Fast_reroute.Event_driven ~primary:1 ~backup:2 () in
  let spec_live, _ =
    Apps.Liveness.program
      ~mode:
        (Apps.Liveness.Event_driven
           { probe_period = Sim_time.us 50; check_period = Sim_time.us 50 })
      ~timeout:(Sim_time.us 150) ~neighbor_port:3 ~out_port:(fun _ -> 0) ()
  in
  fabric_run ~until:(Sim_time.ms 1)
    ~program:(fun sw -> if sw = 0 then spec_frr else spec_live)
    ~on_shard:(fun ctx ->
      let sw_a = List.assoc 0 ctx.switches and sw_b = List.assoc 1 ctx.switches in
      (* B swallows everything, its link port included. *)
      for p = 0 to 3 do
        Event_switch.set_port_tx sw_b ~port:p (fun _ -> ())
      done;
      Event_switch.set_port_tx sw_a ~port:0 (fun _ -> ());
      Event_switch.set_port_tx sw_a ~port:2 (fun _ -> ());
      ignore
        (Traffic.cbr ~sched:ctx.sched ~flow:(mk_flow 0) ~pkt_bytes:500 ~rate_gbps:1.
           ~stop:(Sim_time.us 800)
           ~send:(fun pkt -> Event_switch.inject sw_a ~port:0 pkt)
           ()
          : Traffic.t);
      let link = List.assoc 0 ctx.links in
      ignore (Scheduler.schedule ctx.sched ~at:(Sim_time.us 400) (fun () -> Tmgr.Link.fail link)))
    (Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[])

(* Network monitoring: microburst detection + CMS-with-reset +
   flow-rate measurement + aggregated INT. *)
let network_monitoring () =
  let burst sched sw =
    drive_cbr sched sw;
    ignore
      (Traffic.burst_once ~sched ~flow:(mk_flow 7) ~pkt_bytes:1000 ~count:50 ~rate_gbps:10.
         ~at:(Sim_time.us 300)
         ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
         ())
  in
  let tiny_buffer =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 20_000 }
  in
  let mb =
    let spec, _ = Apps.Microburst.program ~threshold_bytes:10_000 ~out_port:(fun _ -> 3) () in
    single_switch_run ~tm_config:tiny_buffer ~spec ~drive:burst ()
  in
  let cms =
    let spec, _ =
      Apps.Cms_reset.program ~mode:Apps.Cms_reset.Timer_reset ~window:(Sim_time.us 200)
        ~threshold_packets:50 ~out_port:(fun _ -> 3) ()
    in
    single_switch_run ~spec ~drive:drive_cbr ()
  in
  let rate =
    let spec, _ = Apps.Flow_rate.program ~slice:(Sim_time.us 100) ~out_port:(fun _ -> 3) () in
    single_switch_run ~spec ~drive:drive_cbr ()
  in
  let int_sw =
    let spec, _ =
      Apps.Int_telemetry.program
        ~strategy:
          (Apps.Int_telemetry.Aggregated
             {
               report_period = Sim_time.us 100;
               occupancy_threshold = 10_000;
               heartbeat_every = 4;
             })
        ~out_port:(fun _ -> 3) ()
    in
    single_switch_run ~tm_config:tiny_buffer ~spec ~drive:burst ()
  in
  [ mb; cms; rate; int_sw ]

(* Traffic management: FRED-like AQM + timer policer + PIFO WFQ. *)
let traffic_management () =
  let congest sched sw = drive_cbr ~flows:4 ~rate_gbps:4. sched sw in
  let aqm =
    let spec, _ =
      Apps.Aqm.program
        ~policy:(Apps.Aqm.Fred { multiplier = 0.6 })
        ~buffer_bytes:(256 * 1024)
        ~out_port:(fun _ -> 3) ()
    in
    single_switch_run ~spec ~drive:congest ()
  in
  let pol =
    let spec, _ =
      Apps.Policer.program
        ~mode:(Apps.Policer.Timer_bucket { refill_period = Sim_time.us 50 })
        ~cir_bytes_per_sec:125_000_000. ~burst_bytes:64_000 ~out_port:(fun _ -> 3) ()
    in
    single_switch_run ~spec ~drive:drive_cbr ()
  in
  let wfq =
    let spec, _ =
      Apps.Wfq.program ~weight_of:(fun ~flow_slot -> 1 + (flow_slot mod 4)) ~out_port:(fun _ -> 3) ()
    in
    let tm_config =
      { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.policy = Tmgr.Traffic_manager.Pifo_sched }
    in
    single_switch_run ~tm_config ~spec ~drive:congest ()
  in
  [ aqm; pol; wfq ]

(* In-network computing: NetCache with timer-driven decay. *)
let in_network_computing ~seed =
  let spec, _ =
    Apps.Netcache.program ~with_timers:true ~server_port:3
      ~client_port:(fun _ -> 0) ()
  in
  fabric_run ~until:(Sim_time.ms 2) ~program:(fun _ -> spec)
    ~on_shard:(fun ctx ->
      let sw = List.assoc 0 ctx.switches in
      Evcore.Host.set_receiver (List.assoc 0 ctx.hosts) (fun h pkt ->
          match pkt.Packet.payload with
          | Apps.Netcache.Kv_get { key } ->
              let reply =
                Packet.udp_packet
                  ~src:(Netcore.Ipv4_addr.host ~subnet:9 1)
                  ~dst:(Netcore.Ipv4_addr.host ~subnet:3 0)
                  ~src_port:11_211 ~dst_port:10_000 ~payload_len:64 ()
              in
              reply.Packet.payload <- Apps.Netcache.Kv_reply { key; from_cache = false };
              Evcore.Host.send h reply
          | _ -> ());
      Event_switch.set_port_tx sw ~port:0 (fun _ -> ());
      let rng = Stats.Rng.create ~seed in
      let zipf = Stats.Dist.zipf ~n:100 ~alpha:1.2 in
      for i = 0 to 400 do
        ignore
          (Scheduler.schedule ctx.sched
             ~at:(i * Sim_time.us 2)
             (fun () ->
               Event_switch.inject sw ~port:0
                 (Apps.Netcache.get_packet ~client:0 ~key:(Stats.Dist.zipf_draw rng zipf))))
      done)
    (* The key-value server is host 0, behind port 3. *)
    (Evcore.Topology.make ~switches:1 ~links:[] ~hosts:[ (0, 3) ])

let run ?(seed = 42) () =
  {
    rows =
      [
        {
          class_name = "Congestion Aware Forwarding";
          examples = "HULA load balancing";
          paper_events = "Enqueue, Dequeue, Buffer Overflow, Timer";
          measured = measured_of (congestion_aware ());
        };
        {
          class_name = "Network Management";
          examples = "Fast Re-Route, liveness detection";
          paper_events = "Timer, Link Status";
          measured = measured_of (network_management ());
        };
        {
          class_name = "Network Monitoring";
          examples = "microburst, CMS, rate, INT";
          paper_events = "Timer, Enqueue, Dequeue, Buffer Overflow";
          measured = measured_of (network_monitoring ());
        };
        {
          class_name = "Traffic Management";
          examples = "FRED AQM, policer, PIFO WFQ";
          paper_events = "Enqueue, Dequeue, Overflow/Underflow, Timer";
          measured = measured_of (traffic_management ());
        };
        {
          class_name = "In-Network Computing";
          examples = "NetCache-style caching";
          paper_events = "Timer, Link Status";
          measured = measured_of (in_network_computing ~seed);
        };
      ];
  }

let print r =
  Report.section "E2 / Table 2 — application classes and the events they consume";
  Report.note "'measured' = event classes actually delivered to the running programs.";
  Report.blank ();
  Report.table
    ~headers:[ "Application class"; "Examples run"; "Events used (measured)" ]
    ~rows:
      (List.map
         (fun row ->
           [
             row.class_name;
             row.examples;
             String.concat ", " (List.map Event.cls_name row.measured);
           ])
         r.rows);
  Report.blank ();
  Report.table
    ~headers:[ "Application class"; "Events used (paper Table 2)" ]
    ~rows:(List.map (fun row -> [ row.class_name; row.paper_events ]) r.rows);
  Report.blank ();
  let uses cls row = List.exists (Event.cls_equal cls) row.measured in
  let get i = List.nth r.rows i in
  Report.kv "every class consumes timer events"
    (if List.for_all (uses Event.Timer_expiration) r.rows then "PASS" else "FAIL");
  Report.kv "monitoring + traffic mgmt use enq/deq"
    (if
       uses Event.Buffer_enqueue (get 2) && uses Event.Buffer_dequeue (get 2)
       && uses Event.Buffer_enqueue (get 3)
       && uses Event.Buffer_dequeue (get 3)
     then "PASS"
     else "FAIL");
  Report.kv "network management uses link status"
    (if uses Event.Link_status_change (get 1) then "PASS" else "FAIL")

let name = "table2"
