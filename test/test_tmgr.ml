(* Tests for the traffic manager, queues, PIFO and links. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event
module Buffer_pool = Tmgr.Buffer_pool
module Fifo_queue = Tmgr.Fifo_queue
module Pifo = Tmgr.Pifo
module Traffic_manager = Tmgr.Traffic_manager
module Link = Tmgr.Link

let mk_pkt ?(bytes = 100) ?(qid = 0) ?(priority = 0) () =
  let pkt =
    Packet.udp_packet
      ~src:(Netcore.Ipv4_addr.of_string "10.0.0.1")
      ~dst:(Netcore.Ipv4_addr.of_string "10.0.0.2")
      ~src_port:1 ~dst_port:2
      ~payload_len:(max 0 (bytes - 42))
      ()
  in
  pkt.Packet.meta.Packet.qid <- qid;
  pkt.Packet.meta.Packet.priority <- priority;
  pkt

let test_buffer_pool () =
  let p = Buffer_pool.create ~capacity_bytes:1000 in
  Alcotest.(check bool) "alloc ok" true (Buffer_pool.try_alloc p 600);
  Alcotest.(check bool) "overflow rejected" false (Buffer_pool.try_alloc p 600);
  Buffer_pool.free p 600;
  Alcotest.(check bool) "after free ok" true (Buffer_pool.try_alloc p 600);
  Alcotest.(check int) "watermark" 600 (Buffer_pool.high_watermark p);
  Alcotest.(check int) "failed allocs" 1 (Buffer_pool.failed_allocs p)

let test_fifo_queue () =
  let q = Fifo_queue.create ~limit_bytes:250 () in
  let a = mk_pkt ~bytes:100 () and b = mk_pkt ~bytes:100 () in
  Alcotest.(check bool) "accepts" true (Fifo_queue.can_accept q 100);
  Fifo_queue.push q a;
  Fifo_queue.push q b;
  (* 200 bytes queued under a 250-byte limit. *)
  Alcotest.(check bool) "limit enforced" false (Fifo_queue.can_accept q 100);
  Alcotest.(check bool) "bytes" true (Fifo_queue.can_accept q 50);
  Alcotest.(check int) "fifo order" a.Packet.uid (Fifo_queue.pop q).Packet.uid;
  Alcotest.(check bool) "bytes after pop" true
    (Fifo_queue.can_accept q 150 && not (Fifo_queue.can_accept q 151));
  Alcotest.(check int) "byte watermark" 200 (Fifo_queue.high_watermark_bytes q);
  Alcotest.(check int) "second" b.Packet.uid (Fifo_queue.pop q).Packet.uid;
  Alcotest.(check bool) "empty pop is nil" true (Packet.is_nil (Fifo_queue.pop q))

let test_pifo_ordering () =
  let p = Pifo.create () in
  ignore (Pifo.push p ~rank:5 "e");
  ignore (Pifo.push p ~rank:1 "a");
  ignore (Pifo.push p ~rank:3 "c");
  ignore (Pifo.push p ~rank:1 "b") (* equal rank: FIFO after "a" *);
  let order = List.init 4 (fun _ -> Option.get (Pifo.pop p)) in
  Alcotest.(check (list string)) "rank order, FIFO ties" [ "a"; "b"; "c"; "e" ] order

let qcheck_pifo_sorted =
  QCheck.Test.make ~name:"pifo pops in nondecreasing rank order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun ranks ->
      let p = Pifo.create () in
      List.iter (fun r -> ignore (Pifo.push p ~rank:r r)) ranks;
      let rec drain last =
        match Pifo.pop p with None -> true | Some r -> r >= last && drain r
      in
      drain min_int)

let test_pifo_bounded_eviction () =
  let p = Pifo.create ~capacity:2 () in
  ignore (Pifo.push p ~rank:10 "j");
  ignore (Pifo.push p ~rank:20 "t");
  (match Pifo.push_evict p ~rank:5 "e" with
  | `Evicted "t" -> ()
  | `Evicted _ | `Accepted | `Rejected -> Alcotest.fail "expected eviction of worst");
  (match Pifo.push_evict p ~rank:30 "z" with
  | `Rejected -> ()
  | `Evicted _ | `Accepted -> Alcotest.fail "expected rejection");
  Alcotest.(check (list string)) "contents" [ "e"; "j" ]
    (List.init 2 (fun _ -> Option.get (Pifo.pop p)))

let test_pifo_releases_payloads () =
  (* Regression: vacated heap slots (and the spare slots [grow] leaves
     above [len]) used to keep their last entry reachable, pinning
     packets for the life of the PIFO.  A popped payload with no outside
     reference must be collectable immediately. *)
  let p = Pifo.create () in
  let weak = Weak.create 1 in
  (* Force at least one grow (fresh capacity is 16). *)
  for i = 0 to 40 do
    ignore (Pifo.push p ~rank:i (Bytes.create 64))
  done;
  let tracked = Bytes.create 64 in
  Weak.set weak 0 (Some tracked);
  ignore (Pifo.push p ~rank:1000 tracked);
  while not (Pifo.length p = 0) do
    ignore (Pifo.pop p)
  done;
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check weak 0);
  (* Using the PIFO after the collection keeps it reachable through it;
     a dead PIFO would be collected with its slots and hide a pin. *)
  Alcotest.(check int) "pifo empty" 0 (Pifo.length p)

let test_pifo_grow_no_pin () =
  (* The single-element case: push one entry (grow fills 16 slots), pop
     it, and the payload must not stay pinned by the spare slots. *)
  let p = Pifo.create () in
  let weak = Weak.create 1 in
  let payload = Bytes.create 64 in
  Weak.set weak 0 (Some payload);
  ignore (Pifo.push p ~rank:1 payload);
  ignore (Pifo.pop p);
  Gc.full_major ();
  Alcotest.(check bool) "grow spare slots hold no payload" false (Weak.check weak 0);
  Alcotest.(check bool) "pifo empty" true (Pifo.length p = 0)

let quiet_sink =
  {
    Devents.Event_sink.enqueue =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    dequeue =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    overflow =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    underflow = (fun ~port:_ ~qid:_ ~time:_ -> ());
    transmitted = (fun ~port:_ ~pkt_len:_ ~flow_id:_ ~time:_ -> ());
  }

(* A sink that logs the class of every event it receives. *)
let class_sink log =
  let buffer cls ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_
      ~occupancy_bytes:_ ~time:_ =
    log := cls :: !log
  in
  {
    Devents.Event_sink.enqueue = buffer Event.Buffer_enqueue;
    dequeue = buffer Event.Buffer_dequeue;
    overflow = buffer Event.Buffer_overflow;
    underflow = (fun ~port:_ ~qid:_ ~time:_ -> log := Event.Buffer_underflow :: !log);
    transmitted =
      (fun ~port:_ ~pkt_len:_ ~flow_id:_ ~time:_ -> log := Event.Packet_transmitted :: !log);
  }

let tm_fixture ?(config = Traffic_manager.default_config) () =
  let sched = Scheduler.create () in
  let emitted = ref [] in
  let events = ref [] in
  let tm =
    Traffic_manager.create ~sched ~config
      ~emit:(fun ~port pkt -> emitted := (port, pkt) :: !emitted)
      ~events:(class_sink events) ()
  in
  (sched, tm, emitted, events)

let count_events events cls = List.length (List.filter (Event.cls_equal cls) !events)

let test_tm_basic_flow () =
  let sched, tm, emitted, events = tm_fixture () in
  ignore (Traffic_manager.enqueue tm ~port:1 (mk_pkt ~bytes:100 ()));
  Scheduler.run sched;
  Alcotest.(check int) "emitted" 1 (List.length !emitted);
  Alcotest.(check int) "enqueue events" 1 (count_events events Event.Buffer_enqueue);
  Alcotest.(check int) "dequeue events" 1 (count_events events Event.Buffer_dequeue);
  Alcotest.(check int) "underflow (emptied)" 1 (count_events events Event.Buffer_underflow);
  Alcotest.(check int) "transmit events" 1 (count_events events Event.Packet_transmitted);
  (* 100B at 10G = 80ns serialization. *)
  Alcotest.(check int) "serialization delay" (Sim_time.tx_time ~bytes:100 ~gbps:10.)
    (Scheduler.now sched)

let test_tm_serialisation_backlog () =
  let sched, tm, emitted, _events = tm_fixture () in
  (* Two packets at once: second finishes after 2x tx time. *)
  ignore (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:1000 ()));
  ignore (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:1000 ()));
  Scheduler.run sched;
  Alcotest.(check int) "both sent" 2 (List.length !emitted);
  Alcotest.(check int) "back to back" (2 * Sim_time.tx_time ~bytes:1000 ~gbps:10.)
    (Scheduler.now sched)

let test_tm_overflow () =
  let config = { Traffic_manager.default_config with Traffic_manager.buffer_bytes = 150 } in
  let sched, tm, _emitted, events = tm_fixture ~config () in
  (* The first packet dequeues to the port immediately (freeing its
     pool bytes); the second waits in the queue; the third overflows. *)
  Alcotest.(check bool) "first fits" true (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:100 ()));
  Alcotest.(check bool) "second queues" true
    (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:100 ()));
  Alcotest.(check bool) "third dropped" false
    (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:100 ()));
  Scheduler.run sched;
  Alcotest.(check int) "overflow event" 1 (count_events events Event.Buffer_overflow);
  Alcotest.(check int) "drop counted" 1 (Traffic_manager.drops tm)

(* A port holds one FIFO: whatever qid a packet arrives with, it is
   queued, reported and exported as queue 0, in arrival order. *)
let test_tm_one_fifo_per_port () =
  let sched, tm, emitted, _events = tm_fixture () in
  let first = mk_pkt ~bytes:1000 ~qid:1 () in
  let second = mk_pkt ~bytes:100 ~qid:3 () in
  let third = mk_pkt ~bytes:100 ~qid:0 () in
  List.iter (fun pkt -> ignore (Traffic_manager.enqueue tm ~port:0 pkt : bool)) [ first; second; third ];
  Alcotest.(check (list int)) "qid rewritten to 0" [ 0; 0; 0 ]
    (List.map (fun pkt -> pkt.Packet.meta.Packet.qid) [ first; second; third ]);
  Scheduler.run sched;
  Alcotest.(check (list int)) "arrival order"
    (List.map (fun pkt -> pkt.Packet.uid) [ first; second; third ])
    (List.rev_map (fun (_, pkt) -> pkt.Packet.uid) !emitted);
  let reg = Obs.Metrics.create () in
  Traffic_manager.export_metrics tm reg;
  match Obs.Metrics.find_value reg ~labels:[ ("port", "0"); ("qid", "0") ] "tm.queue_hwm_bytes" with
  | Some (Obs.Metrics.Gauge_v { last; _ }) ->
      (* The first packet is queued alone before it starts. *)
      Alcotest.(check int) "queue 0's hwm" 1000 last
  | _ -> Alcotest.fail "tm.queue_hwm_bytes {qid=\"0\"} not exported"

(* A FIFO port names queue 0 in every event it fires, whatever qid the
   packet arrived with: enqueue, dequeue, underflow and overflow alike. *)
let test_tm_fifo_events_name_queue_0 () =
  let log = ref [] in
  let buffer cls ~port:_ ~qid ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
      ~time:_ =
    log := (Event.cls_name cls, qid) :: !log
  in
  let sink =
    {
      Devents.Event_sink.enqueue = buffer Event.Buffer_enqueue;
      dequeue = buffer Event.Buffer_dequeue;
      overflow = buffer Event.Buffer_overflow;
      underflow = (fun ~port:_ ~qid ~time:_ -> log := ("buffer-underflow", qid) :: !log);
      transmitted = (fun ~port:_ ~pkt_len:_ ~flow_id:_ ~time:_ -> ());
    }
  in
  let sched = Scheduler.create () in
  let config =
    { Traffic_manager.default_config with Traffic_manager.queue_limit_bytes = Some 150 }
  in
  let tm = Traffic_manager.create ~sched ~config ~emit:(fun ~port:_ _ -> ()) ~events:sink () in
  (* The first packet starts at once; the second waits; the third finds
     100 of the 150 bytes taken. *)
  let accepted =
    List.map (fun qid -> Traffic_manager.enqueue tm ~port:2 (mk_pkt ~bytes:100 ~qid ())) [ 5; 7; 3 ]
  in
  Alcotest.(check (list bool)) "third overflows" [ true; true; false ] accepted;
  Scheduler.run sched;
  Alcotest.(check (list (pair string int)))
    "events"
    [
      ("buffer-enqueue", 0);
      ("buffer-dequeue", 0);
      ("buffer-underflow", 0);
      ("buffer-enqueue", 0);
      ("buffer-overflow", 0);
      ("buffer-dequeue", 0);
      ("buffer-underflow", 0);
    ]
    (List.rev !log)

let test_tm_pifo_policy () =
  let config =
    { Traffic_manager.default_config with Traffic_manager.policy = Traffic_manager.Pifo_sched }
  in
  let sched, tm, emitted, _events = tm_fixture ~config () in
  ignore (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:1000 ~priority:0 ()));
  let late_but_urgent = mk_pkt ~bytes:100 ~priority:1 () in
  let early_but_lazy = mk_pkt ~bytes:100 ~priority:9 () in
  ignore (Traffic_manager.enqueue tm ~port:0 early_but_lazy);
  ignore (Traffic_manager.enqueue tm ~port:0 late_but_urgent);
  Scheduler.run sched;
  match List.rev_map snd !emitted with
  | [ _first; second; third ] ->
      Alcotest.(check int) "rank order" late_but_urgent.Packet.uid second.Packet.uid;
      Alcotest.(check int) "lazy last" early_but_lazy.Packet.uid third.Packet.uid
  | l -> Alcotest.failf "expected 3 packets, got %d" (List.length l)

let test_tm_egress_drop () =
  let sched = Scheduler.create () in
  let emitted = ref 0 in
  let tm =
    Traffic_manager.create ~sched ~config:Traffic_manager.default_config
      ~emit:(fun ~port:_ _ -> incr emitted)
      ~events:quiet_sink
      ~egress:(fun ~port:_ pkt -> if Packet.len pkt > 500 then None else Some pkt)
      ()
  in
  ignore (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:1000 ()));
  ignore (Traffic_manager.enqueue tm ~port:0 (mk_pkt ~bytes:100 ()));
  Scheduler.run sched;
  Alcotest.(check int) "only small emitted" 1 !emitted;
  Alcotest.(check int) "egress drop counted" 1 (Traffic_manager.egress_drops tm);
  Alcotest.(check bool) "quiescent at end" true (Traffic_manager.quiescent tm)

let test_tm_occupancy_conservation () =
  let sched, tm, _emitted, _events = tm_fixture () in
  let rng = Stats.Rng.create ~seed:3 in
  for i = 0 to 99 do
    ignore
      (Scheduler.schedule sched ~at:(i * Sim_time.ns 200) (fun () ->
           let bytes = 64 + Stats.Rng.int rng 1400 in
           ignore (Traffic_manager.enqueue tm ~port:(Stats.Rng.int rng 4) (mk_pkt ~bytes ()))))
  done;
  Scheduler.run sched;
  Alcotest.(check int) "drains to zero" 0 (Traffic_manager.total_occupancy_bytes tm);
  Alcotest.(check bool) "quiescent" true (Traffic_manager.quiescent tm);
  Alcotest.(check int) "all transmitted" 100 (Traffic_manager.transmitted tm)

let test_link_delay_and_failure () =
  let sched = Scheduler.create () in
  let got_a = ref 0 and got_b = ref 0 in
  let status = ref [] in
  let ep got =
    {
      Link.deliver = (fun _ -> incr got);
      notify_status = (fun ~up -> status := up :: !status);
    }
  in
  let link =
    Link.create ~sched ~delay:(Sim_time.us 2) ~detection_delay:(Sim_time.us 1) ~a:(ep got_a)
      ~b:(ep got_b) ()
  in
  Link.send link ~from_a:true (mk_pkt ());
  Scheduler.run sched;
  Alcotest.(check int) "delivered to b" 1 !got_b;
  Alcotest.(check int) "a got nothing" 0 !got_a;
  Alcotest.(check int) "propagation delay" (Sim_time.us 2) (Scheduler.now sched);
  Link.fail link;
  Link.send link ~from_a:false (mk_pkt ());
  Scheduler.run sched;
  Alcotest.(check int) "lost while down" 1 (Link.lost link);
  Alcotest.(check (list bool)) "both endpoints notified" [ false; false ] !status;
  Link.restore link;
  Link.send link ~from_a:false (mk_pkt ());
  Scheduler.run sched;
  Alcotest.(check int) "works again" 1 !got_a

let test_link_inflight_lost_on_failure () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let ep = { Link.deliver = (fun _ -> incr got); notify_status = (fun ~up:_ -> ()) } in
  let link = Link.create ~sched ~delay:(Sim_time.us 10) ~a:ep ~b:ep () in
  Link.send link ~from_a:true (mk_pkt ());
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 1) (fun () -> Link.fail link));
  Scheduler.run sched;
  Alcotest.(check int) "in-flight packet lost" 0 !got;
  Alcotest.(check int) "loss counted" 1 (Link.lost link)

let test_link_stale_notification_dropped () =
  (* Regression: a flap faster than the detection delay used to deliver
     the stale "down" notification after the link was already back up.
     Epoch tagging drops it — the endpoints see only the final state. *)
  let sched = Scheduler.create () in
  let status = ref [] in
  let ep =
    {
      Link.deliver = (fun _ -> ());
      notify_status = (fun ~up -> status := up :: !status);
    }
  in
  let link =
    Link.create ~sched ~delay:(Sim_time.us 2) ~detection_delay:(Sim_time.us 5) ~a:ep ~b:ep ()
  in
  Link.fail link;
  (* Restore before the 5us PHY detection of the failure fires. *)
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 1) (fun () -> Link.restore link));
  Scheduler.run sched;
  Alcotest.(check (list bool)) "only the final status delivered" [ true; true ] !status;
  Alcotest.(check int) "stale down suppressed" 1 (Link.stale_notifications link);
  Alcotest.(check bool) "link up" true (Link.is_up link)

let test_link_perturbations () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let ep = { Link.deliver = (fun _ -> incr got); notify_status = (fun ~up:_ -> ()) } in
  let link = Link.create ~sched ~delay:(Sim_time.us 1) ~a:ep ~b:ep () in
  (* Deterministic perturbation: drop the 1st, duplicate the 2nd twice,
     delay the 3rd, deliver the rest. *)
  let n = ref 0 in
  Link.set_perturb link (fun ~from_a:_ _pkt ->
      incr n;
      match !n with
      | 1 -> Link.Drop
      | 2 -> Link.Duplicate 2
      | 3 -> Link.Delay (Sim_time.us 10)
      | _ -> Link.Deliver);
  for _ = 1 to 4 do
    Link.send link ~from_a:true (mk_pkt ())
  done;
  Scheduler.run sched;
  (* 4 sent: 1 dropped, 1 tripled (1+2 copies), 1 delayed, 1 normal =
     5 deliveries. *)
  Alcotest.(check int) "deliveries" 5 !got;
  Alcotest.(check int) "drops" 1 (Link.perturb_drops link);
  Alcotest.(check int) "dup copies" 2 (Link.perturb_dups link);
  Alcotest.(check int) "delays" 1 (Link.perturb_delays link);
  Alcotest.(check int) "delayed past the base latency" (Sim_time.us 11) (Scheduler.now sched);
  Link.set_perturb link (fun ~from_a:_ _ -> Link.Deliver);
  Link.send link ~from_a:true (mk_pkt ());
  Scheduler.run sched;
  Alcotest.(check int) "perturbation replaced" 6 !got;
  Alcotest.(check int) "replaced hook drops nothing" 1 (Link.perturb_drops link)

(* --- conservation properties --- *)

let qcheck_tm_conservation =
  (* Every packet offered to the TM is accounted for exactly once:
     transmitted + overflow-dropped + egress-dropped + still queued. *)
  QCheck.Test.make ~name:"traffic manager conserves packets" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 1 120))
    (fun (seed, n) ->
      let sched = Scheduler.create () in
      let rng = Stats.Rng.create ~seed in
      let config =
        {
          Traffic_manager.default_config with
          Traffic_manager.buffer_bytes = 20_000 (* small: force overflows *);
        }
      in
      let emitted = ref 0 in
      let tm =
        Traffic_manager.create ~sched ~config
          ~emit:(fun ~port:_ _ -> incr emitted)
          ~events:quiet_sink
          ~egress:(fun ~port:_ pkt ->
            (* Randomly-ish drop some at egress (deterministic in size). *)
            if Netcore.Packet.len pkt mod 7 = 0 then None else Some pkt)
          ()
      in
      let offered = ref 0 in
      for i = 0 to n - 1 do
        ignore
          (Scheduler.schedule sched
             ~at:(i * Sim_time.ns (50 + Stats.Rng.int rng 400))
             (fun () ->
               incr offered;
               ignore
                 (Traffic_manager.enqueue tm
                    ~port:(Stats.Rng.int rng 4)
                    (mk_pkt ~bytes:(64 + Stats.Rng.int rng 1400) ()))))
      done;
      Scheduler.run sched;
      !offered
      = Traffic_manager.transmitted tm + Traffic_manager.drops tm
        + Traffic_manager.egress_drops tm
      && !emitted = Traffic_manager.transmitted tm
      && Traffic_manager.quiescent tm
      && Traffic_manager.enqueues tm
         = Traffic_manager.transmitted tm + Traffic_manager.egress_drops tm)

(* A packet's hops through a link and a traffic manager allocate
   nothing once warm: the link's in-flight ring holds the packet itself,
   and the dequeue path passes an int queue index and a packet
   ([Packet.nil] for none), never an option. *)
let test_link_send_zero_alloc () =
  let sched = Scheduler.create () in
  let arrived = ref 0 in
  let ep = { Link.deliver = (fun _ -> incr arrived); notify_status = (fun ~up:_ -> ()) } in
  let link = Link.create ~sched ~a:ep ~b:ep () in
  let pkt = mk_pkt () in
  Zero_alloc.check "Link.send + arrival" ~iters:10_000 (fun () ->
      Link.send link ~from_a:true pkt;
      ignore (Scheduler.step sched : bool));
  Alcotest.(check int) "every packet arrived" 20_000 !arrived

let test_tm_cycle_zero_alloc () =
  let sched = Scheduler.create () in
  let sent = ref 0 in
  let tm =
    Traffic_manager.create ~sched ~config:Traffic_manager.default_config
      ~emit:(fun ~port:_ _ -> incr sent)
      ~events:quiet_sink ()
  in
  let pkt = mk_pkt () in
  Zero_alloc.check "TM enqueue + transmit completion on an idle port" ~iters:10_000 (fun () ->
      ignore (Traffic_manager.enqueue tm ~port:0 pkt : bool);
      ignore (Scheduler.step sched : bool));
  Alcotest.(check int) "every packet transmitted" 20_000 !sent;
  Alcotest.(check bool) "port idle again" true (Traffic_manager.quiescent tm)

let suite =
  [
    Alcotest.test_case "buffer pool" `Quick test_buffer_pool;
    Alcotest.test_case "fifo queue" `Quick test_fifo_queue;
    Alcotest.test_case "pifo ordering" `Quick test_pifo_ordering;
    QCheck_alcotest.to_alcotest qcheck_pifo_sorted;
    Alcotest.test_case "pifo bounded eviction" `Quick test_pifo_bounded_eviction;
    Alcotest.test_case "pifo releases payloads" `Quick test_pifo_releases_payloads;
    Alcotest.test_case "pifo grow pins nothing" `Quick test_pifo_grow_no_pin;
    Alcotest.test_case "tm basic flow" `Quick test_tm_basic_flow;
    Alcotest.test_case "tm serialization backlog" `Quick test_tm_serialisation_backlog;
    Alcotest.test_case "tm overflow" `Quick test_tm_overflow;
    Alcotest.test_case "tm one fifo per port" `Quick test_tm_one_fifo_per_port;
    Alcotest.test_case "tm fifo events name queue 0" `Quick test_tm_fifo_events_name_queue_0;
    Alcotest.test_case "tm pifo policy" `Quick test_tm_pifo_policy;
    Alcotest.test_case "tm egress drop" `Quick test_tm_egress_drop;
    Alcotest.test_case "tm occupancy conservation" `Quick test_tm_occupancy_conservation;
    Alcotest.test_case "link delay and failure" `Quick test_link_delay_and_failure;
    Alcotest.test_case "link in-flight loss" `Quick test_link_inflight_lost_on_failure;
    Alcotest.test_case "link stale notification dropped" `Quick
      test_link_stale_notification_dropped;
    Alcotest.test_case "link perturbations" `Quick test_link_perturbations;
    Alcotest.test_case "zero-alloc link send + arrival" `Quick test_link_send_zero_alloc;
    Alcotest.test_case "zero-alloc tm enqueue + transmit" `Quick test_tm_cycle_zero_alloc;
    QCheck_alcotest.to_alcotest qcheck_tm_conservation;
  ]
