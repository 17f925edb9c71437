(* End-to-end tests of the switch architecture layer. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Ipv4_addr = Netcore.Ipv4_addr
module Event = Devents.Event
module Arch = Evcore.Arch
module Program = Evcore.Program
module Event_switch = Evcore.Event_switch
module Control_plane = Evcore.Control_plane
module Host = Evcore.Host
module Topology = Evcore.Topology
module Shared_register = Devents.Shared_register

let mk_packet ?(bytes = 128) ?(src = 1) ?(dst = 2) () =
  let payload_len = max 0 (bytes - 42) in
  Packet.udp_packet
    ~src:(Ipv4_addr.host ~subnet:1 src)
    ~dst:(Ipv4_addr.host ~subnet:1 dst)
    ~src_port:1000 ~dst_port:2000 ~payload_len ()

let make_switch ?(arch = Arch.event_pisa_full) ?(tm_config = Tmgr.Traffic_manager.default_config)
    ~sched program =
  let config = { (Event_switch.default_config arch) with Event_switch.tm_config } in
  Event_switch.create ~sched ~config ~program ()

let test_forward_path () =
  let sched = Scheduler.create () in
  let sw = make_switch ~sched (Fixtures.forward_all ~out_port:1) in
  let received = ref [] in
  Event_switch.set_port_tx sw ~port:1 (fun pkt -> received := pkt :: !received);
  for _ = 1 to 10 do
    Event_switch.inject sw ~port:0 (mk_packet ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "all forwarded" 10 (List.length !received);
  Alcotest.(check int) "ingress fired" 10 (Event_switch.fired sw Event.Ingress_packet);
  Alcotest.(check int) "ingress handled" 10 (Event_switch.handled sw Event.Ingress_packet);
  Alcotest.(check int) "tm enqueued" 10 (Tmgr.Traffic_manager.enqueues (Event_switch.tm sw));
  Alcotest.(check int) "enqueue events fired" 10 (Event_switch.fired sw Event.Buffer_enqueue);
  (* No handler subscribed, so none were delivered. *)
  Alcotest.(check int) "enqueue events unhandled" 0 (Event_switch.handled sw Event.Buffer_enqueue)

let test_pipeline_latency () =
  let sched = Scheduler.create () in
  let sw = make_switch ~sched (Fixtures.forward_all ~out_port:0) in
  let arrival = ref (-1) in
  Event_switch.set_port_tx sw ~port:0 (fun _ -> arrival := Scheduler.now sched);
  let pkt = mk_packet ~bytes:64 () in
  Event_switch.inject sw ~port:0 pkt;
  Scheduler.run sched;
  (* 16-cycle x 5ns pipeline + 64B at 10G serialization = 80ns + 51.2ns *)
  let expected = Sim_time.ns 80 + Sim_time.tx_time ~bytes:64 ~gbps:10. in
  Alcotest.(check int) "egress timestamp" expected !arrival

let test_enqueue_dequeue_state () =
  (* The paper's microburst skeleton: enqueue/dequeue handlers keep
     per-flow buffer occupancy in a shared register; after the buffer
     drains, occupancy must return to zero. *)
  let sched = Scheduler.create () in
  let reg = ref None in
  let program ctx =
    let r = Program.shared_register ctx ~name:"bufSize" ~entries:64 ~width:32 in
    reg := Some r;
    Program.make ~name:"occupancy"
      ~ingress:(fun _ctx pkt ->
        let fid = Netcore.Hashes.fold_range (Flow.hash_addresses (Option.get (Packet.flow pkt))) 64 in
        pkt.Packet.meta.Packet.flow_id <- fid;
        pkt.Packet.meta.Packet.enq_meta.(0) <- fid;
        pkt.Packet.meta.Packet.deq_meta.(0) <- fid;
        Program.Forward 1)
      ~enqueue:(fun _ctx ev ->
        Shared_register.event_add r Shared_register.Enq_side ev.Event.meta.(0) ev.Event.pkt_len)
      ~dequeue:(fun _ctx ev ->
        Shared_register.event_add r Shared_register.Deq_side ev.Event.meta.(0) (-ev.Event.pkt_len))
      ()
  in
  let sw = make_switch ~sched program in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> ());
  for i = 1 to 50 do
    ignore
      (Scheduler.schedule sched ~at:(i * Sim_time.ns 100) (fun () ->
           Event_switch.inject sw ~port:0 (mk_packet ~bytes:200 ())))
  done;
  Scheduler.run sched;
  let r = Option.get !reg in
  Shared_register.sync r;
  let total = ref 0 in
  for i = 0 to 63 do
    total := !total + Shared_register.read r i
  done;
  Alcotest.(check int) "occupancy returns to zero" 0 !total;
  Alcotest.(check int) "enqueue handled 50" 50 (Event_switch.handled sw Event.Buffer_enqueue);
  Alcotest.(check int) "dequeue handled 50" 50 (Event_switch.handled sw Event.Buffer_dequeue)

let test_overflow_event () =
  let sched = Scheduler.create () in
  let overflows = ref 0 in
  let program _ctx =
    Program.make ~name:"ovf"
      ~ingress:(fun _ctx _pkt -> Program.Forward 0)
      ~overflow:(fun _ctx _ev -> incr overflows)
      ()
  in
  let tm_config =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 1000 }
  in
  let sw = make_switch ~sched ~tm_config program in
  Event_switch.set_port_tx sw ~port:0 (fun _ -> ());
  (* 20 x 500B back-to-back at t=0: pool of 1000B holds only 2. *)
  for _ = 1 to 20 do
    Event_switch.inject sw ~port:0 (mk_packet ~bytes:500 ())
  done;
  Scheduler.run sched;
  Alcotest.(check bool) "overflow events delivered" true (!overflows > 0);
  Alcotest.(check int) "tm drops match events" !overflows
    (Tmgr.Traffic_manager.drops (Event_switch.tm sw))

let test_timer_events () =
  let sched = Scheduler.create () in
  let fired = ref 0 in
  let program ctx =
    ignore (ctx.Program.add_timer ~period:(Sim_time.us 10));
    Program.make ~name:"timer"
      ~ingress:(fun _ctx _pkt -> Program.Drop)
      ~timer:(fun _ctx _ev -> incr fired)
      ()
  in
  let sw = make_switch ~sched program in
  ignore sw;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "100 timer firings in 1ms" 100 !fired

let test_timer_unsupported_on_baseline () =
  let sched = Scheduler.create () in
  let program ctx =
    ignore (ctx.Program.add_timer ~period:(Sim_time.us 10));
    Program.make ~name:"timer" ~ingress:(fun _ctx _pkt -> Program.Drop) ()
  in
  Alcotest.check_raises "baseline has no timers"
    (Program.Unsupported "baseline-psa has no timers") (fun () ->
      ignore (make_switch ~arch:Arch.baseline_psa ~sched program))

let test_baseline_masks_buffer_events () =
  (* Same program as the event-driven one, installed on a baseline
     architecture: buffer events fire in hardware but never reach the
     program. *)
  let sched = Scheduler.create () in
  let got = ref 0 in
  let program _ctx =
    Program.make ~name:"mask"
      ~ingress:(fun _ctx _pkt -> Program.Forward 1)
      ~enqueue:(fun _ctx _ev -> incr got)
      ()
  in
  let sw = make_switch ~arch:Arch.baseline_psa ~sched program in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> ());
  for _ = 1 to 5 do
    Event_switch.inject sw ~port:0 (mk_packet ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "events fired in hw" 5 (Event_switch.fired sw Event.Buffer_enqueue);
  Alcotest.(check int) "program never saw them" 0 !got

let test_packet_generator () =
  let sched = Scheduler.create () in
  let program ctx =
    ctx.Program.configure_pktgen ~period:(Sim_time.us 10) ~count:7
      ~template:(fun i -> mk_packet ~src:(100 + i) ())
      ();
    Program.make ~name:"gen" ~ingress:(fun _ctx _pkt -> Program.Forward 2) ()
  in
  let sw = make_switch ~sched program in
  let out = ref 0 in
  Event_switch.set_port_tx sw ~port:2 (fun _ -> incr out);
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "generated packets forwarded" 7 !out;
  Alcotest.(check int) "generated events fired" 7 (Event_switch.fired sw Event.Generated_packet);
  Alcotest.(check int) "handled as generated" 7 (Event_switch.handled sw Event.Generated_packet)

let test_link_status_event () =
  let sched = Scheduler.create () in
  let changes = ref [] in
  let program _ctx =
    Program.make ~name:"link"
      ~ingress:(fun _ctx _pkt -> Program.Drop)
      ~link_change:(fun _ctx (ev : Event.link_event) -> changes := ev.Event.up :: !changes)
      ()
  in
  let sw = make_switch ~sched program in
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 1) (fun () ->
      Event_switch.link_status sw ~port:2 ~up:false));
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 2) (fun () ->
      Event_switch.link_status sw ~port:2 ~up:true));
  (* A duplicate "up" must not fire another event. *)
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 3) (fun () ->
      Event_switch.link_status sw ~port:2 ~up:true));
  Scheduler.run sched;
  Alcotest.(check (list bool)) "down then up" [ false; true ] (List.rev !changes)

let test_control_and_user_events () =
  let sched = Scheduler.create () in
  let control = ref 0 and user = ref (-1) in
  let program _ctx =
    Program.make ~name:"ctl"
      ~ingress:(fun ctx _pkt ->
        ctx.Program.emit_user_event ~tag:3 ~data:99;
        Program.Drop)
      ~control:(fun _ctx (ev : Event.control_event) -> control := ev.Event.opcode)
      ~user:(fun _ctx (ev : Event.user_event) -> user := ev.Event.data)
      ()
  in
  let sw = make_switch ~sched program in
  Event_switch.control_event sw ~opcode:7 ~arg:1;
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "control delivered" 7 !control;
  Alcotest.(check int) "user event delivered" 99 !user

let test_recirculation () =
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"recirc"
      ~ingress:(fun _ctx _pkt -> Program.Recirculate)
      ~recirculated:(fun _ctx _pkt -> Program.Forward 1)
      ()
  in
  let sw = make_switch ~sched program in
  let out = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr out);
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "recirculated then forwarded" 1 !out;
  Alcotest.(check int) "recirculations counted" 1 (Event_switch.recirculations sw);
  Alcotest.(check int) "handled as recirculated" 1
    (Event_switch.handled sw Event.Recirculated_packet)

let test_recirculation_unsupported () =
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"recirc" ~ingress:(fun _ctx _pkt -> Program.Recirculate) ()
  in
  let sw = make_switch ~arch:Arch.sume_event_switch ~sched program in
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "counted unsupported" 1 (Event_switch.unsupported_actions sw)

let test_multicast () =
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"mc" ~ingress:(fun _ctx _pkt -> Program.Multicast [ 1; 2; 3 ]) ()
  in
  let sw = make_switch ~sched program in
  let out = Array.make 4 0 in
  for p = 1 to 3 do
    Event_switch.set_port_tx sw ~port:p (fun _ -> out.(p) <- out.(p) + 1)
  done;
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check (list int)) "one copy per port" [ 1; 1; 1 ] [ out.(1); out.(2); out.(3) ]

let test_egress_handler_psa () =
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"egress-drop"
      ~ingress:(fun _ctx _pkt -> Program.Forward 1)
      ~egress:(fun _ctx ~port:_ pkt ->
        if pkt.Packet.payload_len > 100 then None else Some pkt)
      ()
  in
  let sw = make_switch ~arch:Arch.baseline_psa ~sched program in
  let out = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr out);
  Event_switch.inject sw ~port:0 (mk_packet ~bytes:80 ());
  Event_switch.inject sw ~port:0 (mk_packet ~bytes:500 ());
  Scheduler.run sched;
  Alcotest.(check int) "small passed, big dropped at egress" 1 !out;
  Alcotest.(check int) "egress drop counted" 1
    (Tmgr.Traffic_manager.egress_drops (Event_switch.tm sw))

let test_cp_injection () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:1 in
  let cp = Control_plane.create ~sched ~rng () in
  let program _ctx =
    Program.make ~name:"fwd" ~ingress:(fun _ctx _pkt -> Program.Forward 1) ()
  in
  let sw = make_switch ~arch:Arch.baseline_psa ~sched program in
  let out = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr out);
  Control_plane.submit cp (fun () -> Event_switch.inject_from_control_plane sw (mk_packet ()));
  Scheduler.run sched;
  Alcotest.(check int) "cp-injected forwarded" 1 !out;
  Alcotest.(check int) "counted" 1 (Event_switch.cp_injections sw);
  Alcotest.(check bool) "paid latency" true (Scheduler.now sched >= Sim_time.us 200)

let test_control_plane_rate_limit () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:1 in
  let cp = Control_plane.create ~sched ~op_rate_per_sec:1000. ~jitter:0 ~rng () in
  let times = ref [] in
  for _ = 1 to 5 do
    Control_plane.submit cp (fun () -> times := Scheduler.now sched :: !times)
  done;
  Scheduler.run sched;
  let times = List.rev !times in
  let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | [ _ ] | [] -> [] in
  List.iter
    (fun g -> Alcotest.(check bool) "gap >= 1ms at 1000 ops/s" true (g >= Sim_time.ms 1))
    (gaps times);
  Alcotest.(check int) "all ops ran" 5 (Control_plane.ops cp)

let test_notifications () =
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"notify"
      ~ingress:(fun ctx _pkt ->
        ctx.Program.notify_monitor "hello";
        Program.Drop)
      ()
  in
  let sw = make_switch ~sched program in
  let seen = ref 0 in
  Event_switch.on_notification sw (fun ~time:_ msg ->
      if msg = "hello" then incr seen);
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "callback" 1 !seen;
  Alcotest.(check int) "count" 1 (Event_switch.notification_count sw)

(* Runs [topo] on one scheduler with [program] on every switch. *)
let run_topo ~program ~on_shard topo =
  Parsim.run
    (Parsim.config ~until:(Sim_time.ms 1)
       ~switch_config:(fun _ -> Event_switch.default_config Arch.event_pisa_full)
       ~program:(fun _ -> program) ~on_shard ())
    topo

let test_host_network_roundtrip () =
  let program _ctx =
    Program.make ~name:"fwd01"
      ~ingress:(fun _ctx pkt ->
        (* Port 0 <-> port 1 crossover. *)
        if pkt.Packet.meta.Packet.ingress_port = 0 then Program.Forward 1 else Program.Forward 0)
      ()
  in
  let r =
    run_topo ~program
      ~on_shard:(fun ctx ->
        Host.set_receiver (List.assoc 1 ctx.hosts) (fun h pkt ->
            (* Bounce one reply back. *)
            if Host.received h = 1 then
              Host.send h (mk_packet ~src:2 ~dst:1 ~bytes:(Packet.len pkt) ()));
        Host.send (List.assoc 0 ctx.hosts) (mk_packet ~src:1 ~dst:2 ()))
      (Topology.make ~switches:1 ~links:[] ~hosts:[ (0, 0); (0, 1) ])
  in
  Alcotest.(check int) "h1 received" 1 r.host_received.(1);
  Alcotest.(check int) "h0 got the bounce" 1 r.host_received.(0)

let test_link_failure_loses_packets_and_notifies () =
  let down_seen = ref 0 in
  let program _ctx =
    Program.make ~name:"fwd"
      ~ingress:(fun _ctx _pkt -> Program.Forward 1)
      ~link_change:(fun _ctx (ev : Event.link_event) -> if not ev.Event.up then incr down_seen)
      ()
  in
  let r =
    run_topo ~program
      ~on_shard:(fun ctx ->
        let link = List.assoc 0 ctx.links in
        Event_switch.set_port_tx (List.assoc 1 ctx.switches) ~port:1 (fun _ -> ());
        ignore (Scheduler.schedule ctx.sched ~at:(Sim_time.us 5) (fun () -> Tmgr.Link.fail link));
        (* A packet sent after the failure must be lost. *)
        ignore
          (Scheduler.schedule ctx.sched ~at:(Sim_time.us 6) (fun () ->
               Event_switch.inject (List.assoc 0 ctx.switches) ~port:0 (mk_packet ()))))
      (Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[])
  in
  Alcotest.(check int) "both switches saw link-down" 2 !down_seen;
  Alcotest.(check bool) "packet lost on dead link" true
    (Tmgr.Link.lost (List.assoc 0 r.ctxs.(0).links) >= 1)

let test_topology_single () =
  (* One switch, six hosts on ports 0..5: the switch grows past its
     configured 4 ports, and host 0's packet leaves port 1 to host 1. *)
  let r =
    run_topo
      ~program:(Fixtures.forward_all ~out_port:1)
      ~on_shard:(fun ctx -> Host.send (List.assoc 0 ctx.hosts) (mk_packet ()))
      (Topology.make ~switches:1 ~links:[] ~hosts:(List.init 6 (fun port -> (0, port))))
  in
  Alcotest.(check int) "ports grown" 6 (Event_switch.num_ports (List.assoc 0 r.ctxs.(0).switches));
  Alcotest.(check (array int)) "delivered to host 1" [| 0; 1; 0; 0; 0; 0 |] r.host_received

let test_topology_chain () =
  (* Switch i's port 1 faces switch i+1's port 2 and host i sits on
     port 0 of switch i. Host traffic goes up the chain; transit from
     the previous switch is delivered locally. *)
  let program _ctx =
    Program.make ~name:"chain"
      ~ingress:(fun _ctx pkt ->
        if pkt.Packet.meta.Packet.ingress_port = 2 then Program.Forward 0 else Program.Forward 1)
      ()
  in
  let r =
    run_topo ~program
      ~on_shard:(fun ctx -> Host.send (List.assoc 0 ctx.hosts) (mk_packet ()))
      (Topology.make ~switches:3
         ~links:[ ((0, 1), (1, 2)); ((1, 1), (2, 2)) ]
         ~hosts:[ (0, 0); (1, 0); (2, 0) ])
  in
  Alcotest.(check int) "switch links" 2 (List.length r.plan.local_links);
  Alcotest.(check (array int)) "one hop, delivered to the next host" [| 0; 1; 0 |] r.host_received

let test_topology_leaf_spine_wiring () =
  (* Two leaves (0, 1), three spines (2..4), two hosts a leaf. A leaf
     sends host traffic up its port 2 + 2 to spine 4 and delivers what
     comes down to host port 1; a spine sends everything down its
     port 1 to leaf 1. *)
  let installed = ref [] in
  let program (ctx : Program.ctx) =
    installed := ctx.switch_id :: !installed;
    Program.make ~name:"up-down"
      ~ingress:(fun ctx pkt ->
        if ctx.Program.switch_id >= 2 then Program.Forward 1
        else if pkt.Packet.meta.Packet.ingress_port < 2 then Program.Forward 4
        else Program.Forward 1)
      ()
  in
  let topo = Topology.leaf_spine ~leaves:2 ~spines:3 ~hosts_per_leaf:2 in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "leaf port 2 + s faces spine 2 + s on port l"
    [
      ((0, 2), (2, 0)); ((0, 3), (3, 0)); ((0, 4), (4, 0));
      ((1, 2), (2, 1)); ((1, 3), (3, 1)); ((1, 4), (4, 1));
    ]
    (List.map (fun (l : Topology.link) -> (l.a, l.b)) topo.links);
  Alcotest.(check (list (pair int int)))
    "hosts on leaf ports" [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.map (fun (at : Topology.attachment) -> (at.switch, at.port)) topo.attachments);
  let r =
    run_topo ~program
      ~on_shard:(fun ctx -> Host.send (List.assoc 0 ctx.hosts) (mk_packet ()))
      topo
  in
  Alcotest.(check (list int)) "programs installed" [ 0; 1; 2; 3; 4 ] (List.sort compare !installed);
  Alcotest.(check (list int)) "only spine 4 carried it" [ 0; 0; 1 ]
    (List.map
       (fun sw -> Event_switch.fired (List.assoc sw r.ctxs.(0).switches) Event.Ingress_packet)
       [ 2; 3; 4 ]);
  Alcotest.(check (array int)) "delivered to host 3" [| 0; 0; 0; 1 |] r.host_received;
  Alcotest.check_raises "no spines"
    (Invalid_argument "Topology.leaf_spine: sizes must be positive") (fun () ->
      ignore (Topology.leaf_spine ~leaves:2 ~spines:0 ~hosts_per_leaf:2 : Topology.t))

(* The skewed builders' fixed wiring: link [i] takes its base delay plus
   [i] skews and every host link 1 us. Benchmark and golden networks
   are built from these figures. *)
let link_delays (t : Topology.t) = List.map (fun (l : Topology.link) -> l.delay) t.links

let host_delays (t : Topology.t) =
  List.map (fun (h : Topology.attachment) -> h.host_delay) t.attachments

let us_each n us = List.init n (fun _ -> Sim_time.us us)

let test_topology_ring_wiring () =
  let topo = Topology.ring ~switches:4 () in
  Topology.validate topo;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "port 1 feeds the next switch's port 2"
    [ ((0, 1), (1, 2)); ((1, 1), (2, 2)); ((2, 1), (3, 2)); ((3, 1), (0, 2)) ]
    (List.map (fun (l : Topology.link) -> (l.a, l.b)) topo.links);
  Alcotest.(check (list int)) "1 us + i ps" (List.init 4 (fun i -> Sim_time.us 1 + i))
    (link_delays topo);
  Alcotest.(check (list (pair int int))) "host h on port 0 of switch h"
    [ (0, 0); (1, 0); (2, 0); (3, 0) ]
    (List.map (fun (h : Topology.attachment) -> (h.switch, h.port)) topo.attachments);
  Alcotest.(check (list int)) "host links 1 us" (us_each 4 1) (host_delays topo);
  Alcotest.check_raises "one switch" (Invalid_argument "Topology.ring: need at least 2 switches")
    (fun () -> ignore (Topology.ring ~switches:1 () : Topology.t))

let test_topology_fat_tree_wiring () =
  (* k = 4: cores 0..3, then per pod two aggregations and two edges;
     16 core-aggregation links first, then 16 aggregation-edge links. *)
  let topo = Topology.fat_tree ~k:4 () in
  Topology.validate topo;
  Alcotest.(check (pair int int)) "switches, hosts" (20, 16) (topo.switches, topo.hosts);
  Alcotest.(check (list int)) "core links 2 us, the rest 1 us, + i ps"
    (List.init 32 (fun i -> Sim_time.us (if i < 16 then 2 else 1) + i))
    (link_delays topo);
  Alcotest.(check bool) "core links first" true
    (List.for_all (fun (l : Topology.link) -> (fst l.a < 4) = (l.link_id < 16)) topo.links);
  Alcotest.(check (list int)) "host links 1 us" (us_each 16 1) (host_delays topo);
  Alcotest.(check (array int)) "4 ports everywhere" (Array.make 20 4) (Topology.ports topo);
  Alcotest.check_raises "odd k" (Invalid_argument "Topology.fat_tree: k must be even and >= 2")
    (fun () -> ignore (Topology.fat_tree ~k:3 () : Topology.t))

let test_empty_carriers_for_events () =
  (* Timer events with no traffic ride empty carriers. *)
  let sched = Scheduler.create () in
  let program ctx =
    ignore (ctx.Program.add_timer ~period:(Sim_time.us 1));
    Program.make ~name:"t" ~ingress:(fun _ctx _pkt -> Program.Drop)
      ~timer:(fun _ctx _ev -> ())
      ()
  in
  let sw = make_switch ~sched program in
  Scheduler.run ~until:(Sim_time.us 100) sched;
  let merger = Event_switch.merger sw in
  Alcotest.(check int) "each timer event rode an empty carrier" 100
    (Devents.Event_merger.empty_carriers merger);
  Alcotest.(check int) "pipeline saw empty carriers" 100
    (Pisa.Pipeline.empty_carriers (Event_switch.pipeline sw))

(* --- edge cases and failure injection --- *)

let test_unrouted_ports_counted () =
  let sched = Scheduler.create () in
  (* Forward to an unwired port and to an out-of-range port. *)
  let program _ctx =
    Program.make ~name:"bad-routes"
      ~ingress:(fun _ctx pkt ->
        if pkt.Packet.meta.Packet.ingress_port = 0 then Program.Forward 2 (* unwired *)
        else Program.Forward 99 (* out of range *))
      ()
  in
  let sw = make_switch ~sched program in
  Event_switch.inject sw ~port:0 (mk_packet ());
  Event_switch.inject sw ~port:1 (mk_packet ());
  Scheduler.run sched;
  (* The unwired port discards at transmit time; the invalid port is
     rejected at decision time: both count as unrouted. *)
  Alcotest.(check int) "both counted unrouted" 2 (Event_switch.unrouted sw)

let test_packets_dropped_books_every_loss () =
  (* [packets_dropped] is the switch's side of a conservation book:
     every injected packet is either transmitted or counted there,
     whichever stage lost it — program, routing, an action the
     architecture lacks, the merger's input queue or the TM buffer. *)
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"lossy"
      ~ingress:(fun _ctx pkt ->
        match pkt.Packet.uid mod 5 with
        | 0 -> Program.Drop
        | 1 -> Program.Forward 2 (* unwired *)
        | 2 -> Program.Forward 99 (* out of range *)
        | 3 -> Program.Recirculate (* unsupported on SUME *)
        | _ -> Program.Forward 1)
      ()
  in
  let tm_config =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 2_000 }
  in
  let sw = make_switch ~arch:Arch.sume_event_switch ~tm_config ~sched program in
  let transmitted = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr transmitted);
  (* Bursts of 300 every microsecond: the merger's 256-slot input queue
     sheds part of each burst, and the forwarded fifth (800 ns each at
     10G) outruns port 1 until its 2 KB of buffer overflows. *)
  let bursts = 20 and burst = 300 in
  for b = 0 to bursts - 1 do
    ignore
      (Scheduler.schedule sched ~at:(Sim_time.us b) (fun () ->
           for _ = 1 to burst do
             Event_switch.inject sw ~port:0 (mk_packet ~bytes:1000 ())
           done))
  done;
  Scheduler.run sched;
  let tm = Event_switch.tm sw and merger = Event_switch.merger sw in
  List.iter
    (fun (what, lost) -> if lost = 0 then Alcotest.failf "no packet lost to %s" what)
    [
      ("the program", Event_switch.program_drops sw);
      ("routing", Event_switch.unrouted sw);
      ("unsupported actions", Event_switch.unsupported_actions sw);
      ("the merger", Devents.Event_merger.packet_drops merger);
      ("the TM buffer", Tmgr.Traffic_manager.drops tm);
    ];
  Alcotest.(check int) "injected = transmitted + dropped" (bursts * burst)
    (!transmitted + Event_switch.packets_dropped sw)

let test_inject_bad_port_raises () =
  let sched = Scheduler.create () in
  let sw = make_switch ~sched (Fixtures.forward_all ~out_port:0) in
  Alcotest.check_raises "bad port" (Invalid_argument "Event_switch.inject: bad port")
    (fun () -> Event_switch.inject sw ~port:7 (mk_packet ()))

let test_merger_packet_queue_overflow () =
  let sched = Scheduler.create () in
  let sw = make_switch ~sched (Fixtures.forward_all ~out_port:1) in
  (* 300 packets at the same instant: only 256 fit the input queue. *)
  for _ = 1 to 300 do
    Event_switch.inject sw ~port:0 (mk_packet ())
  done;
  Scheduler.run sched;
  Alcotest.(check bool) "input overflow counted" true
    (Devents.Event_merger.packet_drops (Event_switch.merger sw) > 0)

let test_user_events_masked_on_sume () =
  (* The SUME prototype has no user events: emitting one fires it in
     hardware but never delivers it. *)
  let sched = Scheduler.create () in
  let got = ref 0 in
  let program _ctx =
    Program.make ~name:"user"
      ~ingress:(fun ctx _pkt ->
        ctx.Program.emit_user_event ~tag:1 ~data:1;
        Program.Drop)
      ~user:(fun _ctx _ev -> incr got)
      ()
  in
  let sw = make_switch ~arch:Arch.sume_event_switch ~sched program in
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "fired" 1 (Event_switch.fired sw Event.User_event);
  Alcotest.(check int) "masked" 0 !got

(* A handler reads its event where the merger queued it, so the event
   must stay intact while the handler queues one more of its class into
   a ring that was full at admission. *)
let test_user_event_survives_own_emit () =
  let sched = Scheduler.create () in
  let read = ref [] in
  let program _ctx =
    Program.make ~name:"echo"
      ~ingress:(fun _ctx _pkt -> Program.Drop)
      ~user:(fun ctx (ev : Event.user_event) ->
        if ev.Event.tag = 0 then ctx.Program.emit_user_event ~tag:1000 ~data:(-1);
        read := (ev.Event.tag, ev.Event.data) :: !read)
      ()
  in
  let sw = make_switch ~sched program in
  let capacity = Devents.Event_merger.default_config.Devents.Event_merger.event_queue_capacity in
  let ctx = Event_switch.ctx sw in
  for tag = 0 to capacity - 1 do
    ctx.Program.emit_user_event ~tag ~data:(10 * tag)
  done;
  Scheduler.run sched;
  Alcotest.(check (list (pair int int)))
    "each handler read its own event"
    (List.init capacity (fun tag -> (tag, 10 * tag)) @ [ (1000, -1) ])
    (List.rev !read)

(* Once warm, a packet's trip through one switch allocates nothing:
   admission, the forward decision, the traffic manager, and the
   enqueue, dequeue and transmitted events its handlers run on. *)
let test_switch_cycle_zero_alloc () =
  let sched = Scheduler.create () in
  let forward = Program.Forward 1 in
  let handled = ref 0 in
  let count _ctx _ev = incr handled in
  let program _ctx =
    Program.make ~name:"fwd"
      ~ingress:(fun _ctx _pkt -> forward)
      ~enqueue:count ~dequeue:count ~transmitted:count ()
  in
  let sw = make_switch ~sched program in
  let sent = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr sent);
  let pkt = mk_packet ~bytes:64 () in
  Zero_alloc.check "Event_switch.inject + Scheduler.run" ~iters:10_000 (fun () ->
      Event_switch.inject sw ~port:0 pkt;
      Scheduler.run sched);
  Alcotest.(check (pair int int)) "packets sent, events handled" (20_000, 60_000) (!sent, !handled)

let test_pifo_switch_end_to_end () =
  (* A PIFO-scheduled switch: while a long packet serialises, a later
     high-priority (low rank) packet overtakes an earlier low-priority
     one. *)
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"rank"
      ~ingress:(fun _ctx pkt ->
        pkt.Packet.meta.Packet.priority <- Packet.len pkt (* shorter = more urgent *);
        Program.Forward 1)
      ()
  in
  let tm_config =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.policy = Tmgr.Traffic_manager.Pifo_sched }
  in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let config = { config with Event_switch.tm_config } in
  let sw = Event_switch.create ~sched ~config ~program () in
  let order = ref [] in
  Event_switch.set_port_tx sw ~port:1 (fun pkt -> order := Packet.len pkt :: !order);
  Event_switch.inject sw ~port:0 (mk_packet ~bytes:1500 ());
  Event_switch.inject sw ~port:0 (mk_packet ~bytes:1000 ());
  Event_switch.inject sw ~port:0 (mk_packet ~bytes:100 ());
  Scheduler.run sched;
  Alcotest.(check (list int)) "short packet overtakes" [ 1500; 100; 1000 ] (List.rev !order)

let test_cp_notify_path () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:9 in
  let cp = Control_plane.create ~sched ~rng () in
  let got_at = ref 0 in
  Control_plane.notify cp (fun () -> got_at := Scheduler.now sched);
  Scheduler.run sched;
  Alcotest.(check int) "one-way latency paid" (Sim_time.us 200) !got_at;
  Alcotest.(check int) "notification counted" 1 (Control_plane.notifications cp)

let test_scheduler_negative_delay_raises () =
  let sched = Scheduler.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Scheduler.post_after: negative delay")
    (fun () -> Scheduler.post_after sched ~delay:(-1) (fun () -> ()))

let test_pktgen_zero_period_raises () =
  let sched = Scheduler.create () in
  let pg = Devents.Packet_gen.create ~sched ~sink:(fun _ -> ()) () in
  Alcotest.check_raises "zero period"
    (Invalid_argument "Packet_gen.configure: period must be positive") (fun () ->
      Devents.Packet_gen.configure pg ~period:0 ~template:(fun _ -> mk_packet ()) ())

let test_multicast_with_invalid_member () =
  (* One bad port in a multicast set: the others still get a copy. *)
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"mc" ~ingress:(fun _ctx _pkt -> Program.Multicast [ 1; 42; 2 ]) ()
  in
  let sw = make_switch ~sched program in
  let got = ref 0 in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> incr got);
  Event_switch.set_port_tx sw ~port:2 (fun _ -> incr got);
  Event_switch.inject sw ~port:0 (mk_packet ());
  Scheduler.run sched;
  Alcotest.(check int) "two valid copies" 2 !got;
  Alcotest.(check int) "bad member counted" 1 (Event_switch.unrouted sw)

let test_duplicate_port_raises () =
  (* Wiring one switch port twice is rejected, whichever side of a link
     or which host claims it second. *)
  let run topo =
    ignore
      (run_topo
         ~program:(Fixtures.forward_all ~out_port:1)
         ~on_shard:(fun _ -> ())
         topo
        : Parsim.result)
  in
  Alcotest.check_raises "switch port rewired"
    (Invalid_argument "Topology.validate: switch 0 port 1 wired twice (link 0 and link 1)")
    (fun () ->
      run (Topology.make ~switches:3 ~links:[ ((0, 1), (1, 1)); ((0, 1), (2, 1)) ] ~hosts:[]));
  Alcotest.check_raises "b side rewired"
    (Invalid_argument "Topology.validate: switch 1 port 1 wired twice (link 0 and link 1)")
    (fun () ->
      run (Topology.make ~switches:3 ~links:[ ((0, 1), (1, 1)); ((2, 1), (1, 1)) ] ~hosts:[]));
  Alcotest.check_raises "link onto its own port"
    (Invalid_argument "Topology.validate: switch 0 port 1 wired twice (link 0 and link 0)")
    (fun () -> run (Topology.make ~switches:1 ~links:[ ((0, 1), (0, 1)) ] ~hosts:[]));
  Alcotest.check_raises "host onto a taken port"
    (Invalid_argument "Topology.validate: switch 1 port 1 wired twice (link 0 and host 0)")
    (fun () -> run (Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[ (1, 1) ]));
  (* The same port number on another switch, or another port on the
     same switch, is distinct. *)
  run
    (Topology.make ~switches:3
       ~links:[ ((0, 1), (1, 1)); ((0, 2), (2, 1)) ]
       ~hosts:[ (2, 0); (1, 0); (0, 0) ])

let test_rejected_wiring_builds_nothing () =
  (* A topology that fails validation raises before any switch exists:
     no switch config or program is asked for and no [on_shard] runs.
     The same config then wires the corrected topology. *)
  let calls = ref [] in
  let note fmt = Printf.ksprintf (fun s -> calls := s :: !calls) fmt in
  let cfg =
    Parsim.config ~until:(Sim_time.ms 1)
      ~switch_config:(fun sw ->
        note "config %d" sw;
        Event_switch.default_config Arch.event_pisa_full)
      ~program:(fun sw ->
        note "program %d" sw;
        Fixtures.forward_all ~out_port:1)
      ~on_shard:(fun ctx -> note "shard %d" ctx.shard)
      ()
  in
  (match
     Parsim.run cfg
       (Topology.make ~switches:2 ~links:[ ((1, 3), (0, 3)); ((0, 1), (1, 3)) ] ~hosts:[])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on the b side");
  Alcotest.(check (list string)) "nothing built" [] !calls;
  let r =
    Parsim.run cfg
      (Topology.make ~switches:2 ~links:[ ((1, 3), (0, 3)); ((0, 1), (1, 1)) ] ~hosts:[])
  in
  Alcotest.(check (list string))
    "built once"
    [ "config 0"; "program 0"; "config 1"; "program 1"; "shard 0" ]
    (List.rev !calls);
  Alcotest.(check (list int)) "both links wired" [ 0; 1 ] (List.map fst r.ctxs.(0).links)

let qcheck_switch_conservation =
  (* End-to-end: injected = transmitted + program drops + TM drops +
     egress drops + unrouted + merger input drops, once drained. *)
  QCheck.Test.make ~name:"switch conserves packets end to end" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 1 100))
    (fun (seed, n) ->
      let sched = Scheduler.create () in
      let rng = Stats.Rng.create ~seed in
      let program _ctx =
        Program.make ~name:"mix"
          ~ingress:(fun _ctx pkt ->
            match pkt.Packet.uid mod 4 with
            | 0 -> Program.Drop
            | 1 -> Program.Forward 1
            | 2 -> Program.Forward 2 (* unwired: discarded at tx *)
            | _ -> Program.Forward 0)
          ()
      in
      let tm_config =
        { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 10_000 }
      in
      let sw = make_switch ~sched ~tm_config program in
      let received = ref 0 in
      Event_switch.set_port_tx sw ~port:0 (fun _ -> incr received);
      Event_switch.set_port_tx sw ~port:1 (fun _ -> incr received);
      for i = 0 to n - 1 do
        ignore
          (Scheduler.schedule sched
             ~at:(i * Sim_time.ns (30 + Stats.Rng.int rng 300))
             (fun () ->
               Event_switch.inject sw ~port:(Stats.Rng.int rng 4)
                 (mk_packet ~bytes:(64 + Stats.Rng.int rng 900) ())))
      done;
      Scheduler.run sched;
      let tm = Event_switch.tm sw in
      n
      = !received + Event_switch.unrouted sw + Event_switch.program_drops sw
        + Tmgr.Traffic_manager.drops tm
        + Devents.Event_merger.packet_drops (Event_switch.merger sw))

let suite =
  [
    Alcotest.test_case "forward path" `Quick test_forward_path;
    Alcotest.test_case "zero-alloc switch forward + buffer events" `Quick
      test_switch_cycle_zero_alloc;
    Alcotest.test_case "user handler reads its event after emitting one" `Quick
      test_user_event_survives_own_emit;
    Alcotest.test_case "pipeline latency" `Quick test_pipeline_latency;
    Alcotest.test_case "enqueue/dequeue shared state" `Quick test_enqueue_dequeue_state;
    Alcotest.test_case "overflow events" `Quick test_overflow_event;
    Alcotest.test_case "timer events" `Quick test_timer_events;
    Alcotest.test_case "timers unsupported on baseline" `Quick test_timer_unsupported_on_baseline;
    Alcotest.test_case "baseline masks buffer events" `Quick test_baseline_masks_buffer_events;
    Alcotest.test_case "packet generator" `Quick test_packet_generator;
    Alcotest.test_case "link status events" `Quick test_link_status_event;
    Alcotest.test_case "control + user events" `Quick test_control_and_user_events;
    Alcotest.test_case "recirculation" `Quick test_recirculation;
    Alcotest.test_case "recirculation unsupported" `Quick test_recirculation_unsupported;
    Alcotest.test_case "multicast" `Quick test_multicast;
    Alcotest.test_case "PSA egress handler" `Quick test_egress_handler_psa;
    Alcotest.test_case "control-plane injection" `Quick test_cp_injection;
    Alcotest.test_case "control-plane rate limit" `Quick test_control_plane_rate_limit;
    Alcotest.test_case "notifications" `Quick test_notifications;
    Alcotest.test_case "host/network roundtrip" `Quick test_host_network_roundtrip;
    Alcotest.test_case "link failure" `Quick test_link_failure_loses_packets_and_notifies;
    Alcotest.test_case "topology single" `Quick test_topology_single;
    Alcotest.test_case "topology chain" `Quick test_topology_chain;
    Alcotest.test_case "topology leaf-spine" `Quick test_topology_leaf_spine_wiring;
    Alcotest.test_case "topology ring wiring" `Quick test_topology_ring_wiring;
    Alcotest.test_case "topology fat-tree wiring" `Quick test_topology_fat_tree_wiring;
    Alcotest.test_case "empty carriers" `Quick test_empty_carriers_for_events;
    Alcotest.test_case "unrouted ports counted" `Quick test_unrouted_ports_counted;
    Alcotest.test_case "packets dropped books every loss" `Quick
      test_packets_dropped_books_every_loss;
    Alcotest.test_case "inject bad port raises" `Quick test_inject_bad_port_raises;
    Alcotest.test_case "merger packet overflow" `Quick test_merger_packet_queue_overflow;
    Alcotest.test_case "user events masked on SUME" `Quick test_user_events_masked_on_sume;
    Alcotest.test_case "PIFO switch end-to-end" `Quick test_pifo_switch_end_to_end;
    Alcotest.test_case "control-plane notify" `Quick test_cp_notify_path;
    Alcotest.test_case "negative delay raises" `Quick test_scheduler_negative_delay_raises;
    Alcotest.test_case "pktgen zero period raises" `Quick test_pktgen_zero_period_raises;
    Alcotest.test_case "multicast with invalid member" `Quick test_multicast_with_invalid_member;
    Alcotest.test_case "duplicate port raises" `Quick test_duplicate_port_raises;
    Alcotest.test_case "rejected wiring builds nothing" `Quick test_rejected_wiring_builds_nothing;
    QCheck_alcotest.to_alcotest qcheck_switch_conservation;
  ]
