(* Tests for the event substrate: timer unit, packet generator, event
   merger and its queues, shared registers (incl. Figure 3
   aggregation). *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Event = Devents.Event
module Timer_unit = Devents.Timer_unit
module Packet_gen = Devents.Packet_gen
module Event_merger = Devents.Event_merger
module Shared_register = Devents.Shared_register
module Pipeline = Pisa.Pipeline

let test_event_classes () =
  Alcotest.(check int) "thirteen classes (Table 1)" 13 Event.num_classes;
  Alcotest.(check int) "list matches" Event.num_classes (List.length Event.all_classes);
  (* Indexes are a bijection. *)
  let seen = Array.make Event.num_classes false in
  List.iter (fun c -> seen.(Event.cls_index c) <- true) Event.all_classes;
  Alcotest.(check bool) "bijection" true (Array.for_all Fun.id seen)

let test_timer_quantisation () =
  let sched = Scheduler.create () in
  let fired = ref [] in
  let tu =
    Timer_unit.create ~sched
      ~sink:(fun ev -> match ev with Event.Timer t -> fired := t :: !fired | _ -> ())
      ()
  in
  (* Period 250ns with 100ns resolution: firings quantise up
     (scheduled 250/500/750/1000 -> fired 300/500/800/1000). *)
  ignore (Timer_unit.add_periodic tu ~period:(Sim_time.ns 250));
  Scheduler.run ~until:(Sim_time.ns 1000) sched;
  let fired = List.rev !fired in
  Alcotest.(check int) "count" 4 (List.length fired);
  List.iter
    (fun (t : Event.timer_event) ->
      Alcotest.(check int) "fired on tick" 0 (t.Event.fired mod Sim_time.ns 100);
      Alcotest.(check bool) "never early" true (t.Event.fired >= t.Event.scheduled))
    fired

let test_timer_cancel () =
  let sched = Scheduler.create () in
  let count = ref 0 in
  let tu = Timer_unit.create ~sched ~sink:(fun _ -> incr count) () in
  let id = Timer_unit.add_periodic tu ~period:(Sim_time.us 1) in
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.us 3 + Sim_time.ns 500) (fun () ->
         Timer_unit.cancel tu id));
  Scheduler.run ~until:(Sim_time.us 10) sched;
  Alcotest.(check int) "three firings then cancelled" 3 !count

(* Timers are independent per id: each counts its own firings, and
   cancelling one leaves the other running. *)
let test_timers_per_id () =
  let sched = Scheduler.create () in
  let fired = ref [] in
  let tu =
    Timer_unit.create ~sched
      ~sink:(fun ev ->
        match ev with
        | Event.Timer t -> fired := (t.Event.id, t.Event.count, t.Event.fired) :: !fired
        | _ -> ())
      ()
  in
  let a = Timer_unit.add_periodic tu ~period:(Sim_time.ns 300) in
  let b = Timer_unit.add_periodic tu ~period:(Sim_time.ns 500) in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Scheduler.post sched ~at:(Sim_time.ns 700) (fun () -> Timer_unit.cancel tu a);
  Scheduler.run ~until:(Sim_time.ns 1500) sched;
  Alcotest.(check (list (triple int int int)))
    "(id, count, fired)"
    [
      (a, 1, Sim_time.ns 300);
      (b, 1, Sim_time.ns 500);
      (a, 2, Sim_time.ns 600);
      (b, 2, Sim_time.ns 1000);
      (b, 3, Sim_time.ns 1500);
    ]
    (List.rev !fired);
  Alcotest.(check int) "last firing" (Sim_time.ns 1500) (Timer_unit.last_fire_time tu);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Timer_unit.add_periodic: period must be positive") (fun () ->
      ignore (Timer_unit.add_periodic tu ~period:0 : Timer_unit.timer_id))

let mk_pkt () =
  Netcore.Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.of_string "10.0.0.1")
    ~dst:(Netcore.Ipv4_addr.of_string "10.0.0.2")
    ~src_port:1 ~dst_port:2 ~payload_len:22 ()

let test_packet_gen_count () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let pg = Packet_gen.create ~sched ~sink:(fun _ -> incr got) () in
  Packet_gen.configure pg ~period:(Sim_time.us 1) ~count:5 ~template:(fun _ -> mk_pkt ()) ();
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "exactly count" 5 !got;
  Alcotest.(check int) "stopped: nothing left queued" 0 (Scheduler.pending sched)

let test_packet_gen_reconfigure () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let pg = Packet_gen.create ~sched ~sink:(fun _ -> incr got) () in
  Packet_gen.configure pg ~period:(Sim_time.us 1) ~template:(fun _ -> mk_pkt ()) ();
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.us 10 + 1) (fun () -> Packet_gen.stop pg));
  Scheduler.run ~until:(Sim_time.us 20) sched;
  Alcotest.(check int) "stopped at 10us" 10 !got

(* --- Event merger --- *)

(* The merger's carrier is a reused scratch record, so the fixture
   snapshots what the tests assert on at receipt time. *)
type carrier_snap = { has_pkt : bool; classes : Event.cls list }

let merger_fixture ?config () =
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let carriers = ref [] in
  let merger =
    Event_merger.create ~sched ~pipeline ?config
      ~process:(fun c ~exit_time:_ ->
        let classes =
          List.init c.Event_merger.n_events (fun i ->
              Event.cls_of c.Event_merger.events.(i))
        in
        let has_pkt = not (Netcore.Packet.is_nil c.Event_merger.pkt) in
        carriers := { has_pkt; classes } :: !carriers)
      ()
  in
  (sched, pipeline, merger, carriers)

let timer_ev n = Event.Timer { id = 0; period = 0; scheduled = n; fired = n; count = n }

let test_merger_piggyback () =
  let sched, _p, merger, carriers = merger_fixture () in
  ignore (Event_merger.offer_event merger (timer_ev 1));
  ignore (Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()));
  Scheduler.run sched;
  match List.rev !carriers with
  | [ c ] ->
      Alcotest.(check bool) "packet present" true c.has_pkt;
      Alcotest.(check int) "event piggybacked" 1 (List.length c.classes);
      Alcotest.(check int) "no empty carriers" 0 (Event_merger.empty_carriers merger);
      Alcotest.(check int) "piggyback count" 1 (Event_merger.piggybacked_events merger)
  | cs -> Alcotest.failf "expected one carrier, got %d" (List.length cs)

let test_merger_empty_carrier () =
  let sched, _p, merger, carriers = merger_fixture () in
  ignore (Event_merger.offer_event merger (timer_ev 1));
  Scheduler.run sched;
  match !carriers with
  | [ c ] ->
      Alcotest.(check bool) "no packet" false c.has_pkt;
      Alcotest.(check int) "empty carrier counted" 1 (Event_merger.empty_carriers merger)
  | cs -> Alcotest.failf "expected one carrier, got %d" (List.length cs)

let test_merger_one_admission_per_cycle () =
  let sched, pipeline, merger, carriers = merger_fixture () in
  for _ = 1 to 5 do
    ignore (Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()))
  done;
  Scheduler.run sched;
  Alcotest.(check int) "all admitted" 5 (List.length !carriers);
  (* 5 admissions at 1/cycle: the last admission is at cycle 4. *)
  Alcotest.(check int) "admissions" 5 (Pipeline.admissions pipeline);
  Alcotest.(check int) "clock advanced 4 cycles" (4 * Pipeline.default_clock_period)
    (Scheduler.now sched)

let test_merger_priority_order () =
  let sched, _p, merger, carriers = merger_fixture () in
  (* Offer low-priority first; the carrier must list link-change before
     enqueue. *)
  let be =
    Event.Enqueue
      {
        Event.port = 0;
        qid = 0;
        pkt_len = 100;
        flow_id = 1;
        meta = Array.make Netcore.Packet.meta_slots 0;
        occupancy_pkts = 1;
        occupancy_bytes = 100;
        time = 0;
      }
  in
  ignore (Event_merger.offer_event merger be);
  ignore (Event_merger.offer_event merger (Event.Link_change { port = 1; up = false; time = 0 }));
  ignore (Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()));
  Scheduler.run sched;
  match !carriers with
  | [ c ] ->
      Alcotest.(check (list string)) "priority order"
        [ "link-status-change"; "buffer-enqueue" ]
        (List.map Event.cls_name c.classes)
  | cs -> Alcotest.failf "expected one carrier, got %d" (List.length cs)

(* The metadata bus carries at most four events (the default width):
   the four highest-priority classes ride the packet, and the rest
   follow in an empty carrier. *)
let test_merger_bus_width () =
  let sched, _p, merger, carriers = merger_fixture () in
  List.iter
    (fun ev -> Alcotest.(check bool) "accepted" true (Event_merger.offer_event merger ev))
    [
      Event.User { Event.tag = 1; data = 0; time = 0 };
      Event.Transmitted { Event.port = 0; pkt_len = 100; flow_id = 1; time = 0 };
      Event.Underflow { Event.port = 0; qid = 0; time = 0 };
      Event.Control { Event.opcode = 1; arg = 0; time = 0 };
      timer_ev 1;
      Event.Link_change { Event.port = 1; up = false; time = 0 };
    ];
  ignore (Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()) : bool);
  Scheduler.run sched;
  Alcotest.(check (list (pair bool (list string))))
    "carriers"
    [
      ( true,
        [ "link-status-change"; "timer-expiration"; "control-plane-triggered"; "buffer-underflow" ]
      );
      (false, [ "packet-transmitted"; "user-event" ]);
    ]
    (List.rev_map (fun c -> (c.has_pkt, List.map Event.cls_name c.classes)) !carriers);
  Alcotest.(check int) "piggybacked" 4 (Event_merger.piggybacked_events merger);
  Alcotest.(check int) "empty carriers" 1 (Event_merger.empty_carriers merger)

let kind_name = function
  | Event_merger.Ingress -> "ingress"
  | Event_merger.Recirculated -> "recirculated"
  | Event_merger.Generated -> "generated"

(* Packets waiting together are admitted ingress first, then
   recirculated, then generated; FIFO within a kind. *)
let test_merger_packet_kind_order () =
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let admitted = ref [] in
  let merger =
    Event_merger.create ~sched ~pipeline
      ~process:(fun c ~exit_time:_ ->
        admitted := (kind_name c.Event_merger.kind, c.Event_merger.pkt.Netcore.Packet.uid) :: !admitted)
      ()
  in
  let offered =
    List.map
      (fun kind ->
        let pkt = mk_pkt () in
        ignore (Event_merger.offer_packet merger kind pkt : bool);
        (kind_name kind, pkt.Netcore.Packet.uid))
      Event_merger.[ Generated; Recirculated; Ingress; Generated; Ingress ]
  in
  Scheduler.run sched;
  let nth i = List.nth offered i in
  Alcotest.(check (list (pair string int)))
    "admission order"
    [ nth 2; nth 4; nth 1; nth 0; nth 3 ]
    (List.rev !admitted)

(* Each packet kind's input queue holds 256 packets, counted apart: the
   257th ingress packet is refused while a recirculated one still fits. *)
let test_merger_packet_queue_capacity () =
  let sched, _p, merger, carriers = merger_fixture () in
  let accepted =
    List.init 257 (fun _ -> Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()))
  in
  Alcotest.(check int) "256 accepted" 256 (List.length (List.filter Fun.id accepted));
  Alcotest.(check bool) "the 257th refused" false (List.nth accepted 256);
  Alcotest.(check int) "the refusal counted" 1 (Event_merger.packet_drops merger);
  Alcotest.(check bool) "recirculated has its own queue" true
    (Event_merger.offer_packet merger Event_merger.Recirculated (mk_pkt ()));
  Alcotest.(check int) "waiting" 257 (Event_merger.packets_waiting merger);
  Scheduler.run sched;
  Alcotest.(check int) "every queued packet admitted" 257 (List.length !carriers);
  Alcotest.(check int) "nothing left" 0 (Event_merger.packets_waiting merger)

(* A buffer event's metadata is copied into its ring slot's array, so
   it must be [Packet.meta_slots] long; any other length is refused
   before anything is queued. *)
let test_merger_rejects_odd_meta () =
  let _sched, _p, merger, _carriers = merger_fixture () in
  let offer meta =
    Event_merger.offer_buffer merger ~cls_ix:(Event.cls_index Event.Buffer_enqueue) ~port:0 ~qid:0
      ~pkt_len:100 ~flow_id:1 ~meta ~occupancy_pkts:1 ~occupancy_bytes:100 ~time:0
  in
  Alcotest.check_raises "short meta"
    (Invalid_argument "Event_merger.offer_buffer: meta is not Packet.meta_slots long") (fun () ->
      ignore (offer [| 1; 2 |] : bool));
  Alcotest.(check int) "nothing queued" 0 (Event_merger.events_waiting merger);
  Alcotest.(check bool) "full-length meta accepted" true
    (offer (Array.make Netcore.Packet.meta_slots 7))

let test_merger_one_event_per_class_per_carrier () =
  let sched, _p, merger, carriers = merger_fixture () in
  ignore (Event_merger.offer_event merger (timer_ev 1));
  ignore (Event_merger.offer_event merger (timer_ev 2));
  Scheduler.run sched;
  (* Two timer events cannot share a carrier: two empty carriers. *)
  Alcotest.(check int) "two carriers" 2 (List.length !carriers);
  List.iter
    (fun c -> Alcotest.(check int) "one event each" 1 (List.length c.classes))
    !carriers

let test_merger_event_drop_accounting () =
  let config =
    { Event_merger.default_config with Event_merger.event_queue_capacity = 4 }
  in
  let sched, _p, merger, _carriers = merger_fixture ~config () in
  (* Offer 10 timer events at once; queue capacity 4 -> 6 dropped. *)
  let accepted = ref 0 in
  for i = 1 to 10 do
    if Event_merger.offer_event merger (timer_ev i) then incr accepted
  done;
  Scheduler.run sched;
  Alcotest.(check int) "accepted" 4 !accepted;
  match Event_merger.event_drops merger with
  | [ (cls, n) ] ->
      Alcotest.(check string) "class" "timer-expiration" (Event.cls_name cls);
      Alcotest.(check int) "dropped" 6 n
  | other -> Alcotest.failf "unexpected drop list of length %d" (List.length other)

(* Every field of a delivered event, so a decode that mixes up columns
   or classes shows in the string. *)
let describe ev =
  let name = Event.cls_name (Event.cls_of ev) in
  match ev with
  | Event.Enqueue b | Event.Dequeue b | Event.Overflow b ->
      Printf.sprintf "%s port=%d qid=%d len=%d flow=%d meta=%s occ=%d/%d t=%d" name
        b.Event.port b.Event.qid b.Event.pkt_len b.Event.flow_id
        (String.concat "," (List.map string_of_int (Array.to_list b.Event.meta)))
        b.Event.occupancy_pkts b.Event.occupancy_bytes b.Event.time
  | Event.Underflow u -> Printf.sprintf "%s port=%d qid=%d t=%d" name u.Event.port u.Event.qid u.Event.time
  | Event.Transmitted x ->
      Printf.sprintf "%s port=%d len=%d flow=%d t=%d" name x.Event.port x.Event.pkt_len
        x.Event.flow_id x.Event.time
  | Event.Timer x ->
      Printf.sprintf "%s id=%d period=%d sched=%d fired=%d count=%d" name x.Event.id x.Event.period
        x.Event.scheduled x.Event.fired x.Event.count
  | Event.Link_change l -> Printf.sprintf "%s port=%d up=%b t=%d" name l.Event.port l.Event.up l.Event.time
  | Event.Control c -> Printf.sprintf "%s op=%d arg=%d t=%d" name c.Event.opcode c.Event.arg c.Event.time
  | Event.User u -> Printf.sprintf "%s tag=%d data=%d t=%d" name u.Event.tag u.Event.data u.Event.time

(* A merger that records [describe] of every admitted event, oldest
   first. *)
let describing_merger () =
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let seen = ref [] in
  let merger =
    Event_merger.create ~sched ~pipeline
      ~process:(fun c ~exit_time:_ ->
        for i = 0 to c.Event_merger.n_events - 1 do
          seen := describe c.Event_merger.events.(i) :: !seen
        done)
      ()
  in
  (sched, merger, fun () -> List.rev !seen)

let buffer_event ~meta =
  {
    Event.port = 3;
    qid = 0;
    pkt_len = 1500;
    flow_id = 77;
    meta;
    occupancy_pkts = 2;
    occupancy_bytes = 3000;
    time = 42;
  }

let offer_buffer_event merger ~cls_ix (b : Event.buffer_event) =
  Event_merger.offer_buffer merger ~cls_ix ~port:b.Event.port ~qid:b.Event.qid
    ~pkt_len:b.Event.pkt_len ~flow_id:b.Event.flow_id ~meta:b.Event.meta
    ~occupancy_pkts:b.Event.occupancy_pkts ~occupancy_bytes:b.Event.occupancy_bytes
    ~time:b.Event.time

let test_merger_first_push_every_class () =
  (* The merger builds a class's ring at its first accepted offer.
     One event of each of the nine metadata classes, offered to a fresh
     merger through every entry point, must be admitted in priority
     order with its fields intact. *)
  let sched, merger, seen = describing_merger () in
  let buffer cls =
    let i = Event.cls_index cls in
    { Event.port = i; qid = i + 1; pkt_len = 64 + i; flow_id = 100 + i;
      meta = [| i; i + 2; i + 3; i + 4 |]; occupancy_pkts = 10 + i; occupancy_bytes = 640 + i;
      time = 1000 + i }
  in
  let events =
    [
      Event.Transmitted { Event.port = 4; pkt_len = 1500; flow_id = 44; time = 1004 };
      Event.Enqueue (buffer Event.Buffer_enqueue);
      Event.Dequeue (buffer Event.Buffer_dequeue);
      Event.Overflow (buffer Event.Buffer_overflow);
      Event.Underflow { Event.port = 8; qid = 3; time = 1008 };
      Event.Timer { Event.id = 9; period = 90; scheduled = 900; fired = 901; count = 2 };
      Event.Control { Event.opcode = 10; arg = 100; time = 1010 };
      Event.Link_change { Event.port = 11; up = true; time = 1011 };
      Event.User { Event.tag = 12; data = 120; time = 1012 };
    ]
  in
  let expected =
    List.map
      (fun cls -> describe (List.find (fun ev -> Event.cls_equal (Event.cls_of ev) cls) events))
      [
        Event.Link_status_change;
        Event.Timer_expiration;
        Event.Control_plane;
        Event.Buffer_overflow;
        Event.Buffer_underflow;
        Event.Buffer_dequeue;
        Event.Buffer_enqueue;
        Event.Packet_transmitted;
        Event.User_event;
      ]
  in
  Alcotest.(check int) "nine metadata classes" 9 (List.length expected);
  List.iter
    (fun ev ->
      let accepted =
        match ev with
        | Event.Enqueue b | Event.Dequeue b | Event.Overflow b ->
            offer_buffer_event merger ~cls_ix:(Event.cls_index (Event.cls_of ev)) b
        | Event.Underflow u ->
            Event_merger.offer_underflow merger ~port:u.Event.port ~qid:u.Event.qid
              ~time:u.Event.time
        | Event.Transmitted x ->
            Event_merger.offer_transmitted merger ~port:x.Event.port ~pkt_len:x.Event.pkt_len
              ~flow_id:x.Event.flow_id ~time:x.Event.time
        | Event.Timer _ | Event.Link_change _ | Event.Control _ | Event.User _ ->
            Event_merger.offer_event merger ev
      in
      Alcotest.(check bool) ("accepted " ^ describe ev) true accepted)
    events;
  Scheduler.run sched;
  Alcotest.(check (list string)) "admitted in priority order, intact" expected (seen ())

(* A buffer event's [meta] is copied into its ring slot at offer time:
   the caller may reuse its array, and admission hands over the offered
   values with every other field. *)
let test_merger_copies_meta () =
  let sched, merger, seen = describing_merger () in
  let offered = Array.init Netcore.Packet.meta_slots (fun i -> 10 * (i + 1)) in
  let b = buffer_event ~meta:(Array.copy offered) in
  Alcotest.(check bool) "accepted" true
    (offer_buffer_event merger ~cls_ix:(Event.cls_index Event.Buffer_enqueue) b);
  Array.fill b.Event.meta 0 (Array.length b.Event.meta) (-1);
  Scheduler.run sched;
  Alcotest.(check (list string))
    "fields and meta as offered"
    [ describe (Event.Enqueue (buffer_event ~meta:offered)) ]
    (seen ())

(* [offer_buffer] takes only the three buffer classes: any other class
   index raises before anything is queued or counted, and a valid offer
   after it is admitted intact. *)
let test_merger_offer_buffer_checks_class () =
  let sched, merger, seen = describing_merger () in
  let b = buffer_event ~meta:(Array.make Netcore.Packet.meta_slots 7) in
  List.iter
    (fun cls ->
      Alcotest.check_raises (Event.cls_name cls)
        (Invalid_argument "Event_merger.offer_buffer: cls_ix is not a buffer class") (fun () ->
          ignore (offer_buffer_event merger ~cls_ix:(Event.cls_index cls) b : bool));
      Alcotest.(check int) "nothing queued" 0 (Event_merger.events_waiting merger))
    [ Event.Ingress_packet; Event.Packet_transmitted ];
  Alcotest.(check bool) "a dequeue event accepted" true
    (offer_buffer_event merger ~cls_ix:(Event.cls_index Event.Buffer_dequeue) b);
  Scheduler.run sched;
  Alcotest.(check (list string)) "admitted intact" [ describe (Event.Dequeue b) ] (seen ());
  Alcotest.(check (list (pair string int)))
    "no drops" []
    (List.map (fun (c, n) -> (Event.cls_name c, n)) (Event_merger.event_drops merger))

(* Every merger queue is a bounded FIFO: a packet kind holds 256 and an
   event class [event_queue_capacity]. A full queue refuses and counts
   the offer, and what it holds is admitted oldest first. *)
let test_merger_queue_bounds () =
  let config = { Event_merger.default_config with Event_merger.event_queue_capacity = 2 } in
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let uids = ref [] and timers = ref [] in
  let merger =
    Event_merger.create ~sched ~pipeline ~config
      ~process:(fun c ~exit_time:_ ->
        let pkt = c.Event_merger.pkt in
        if not (Netcore.Packet.is_nil pkt) then uids := pkt.Netcore.Packet.uid :: !uids;
        for i = 0 to c.Event_merger.n_events - 1 do
          match c.Event_merger.events.(i) with
          | Event.Timer x -> timers := x.Event.count :: !timers
          | _ -> ()
        done)
      ()
  in
  let pkts = List.init 257 (fun _ -> mk_pkt ()) in
  let accepted = List.map (Event_merger.offer_packet merger Event_merger.Ingress) pkts in
  Alcotest.(check int) "256 packets accepted" 256 (List.length (List.filter Fun.id accepted));
  Alcotest.(check (list bool))
    "third timer refused" [ true; true; false ]
    (List.map (fun n -> Event_merger.offer_event merger (timer_ev n)) [ 1; 2; 3 ]);
  Alcotest.(check int) "packet drop counted" 1 (Event_merger.packet_drops merger);
  Alcotest.(check (list (pair string int)))
    "timer drop counted" [ ("timer-expiration", 1) ]
    (List.map (fun (c, n) -> (Event.cls_name c, n)) (Event_merger.event_drops merger));
  Scheduler.run sched;
  Alcotest.(check (list int))
    "packets oldest first"
    (List.filteri (fun i _ -> i < 256) (List.map (fun p -> p.Netcore.Packet.uid) pkts))
    (List.rev !uids);
  Alcotest.(check (list int)) "timers oldest first" [ 1; 2 ] (List.rev !timers)

(* One bounded ring per class: a full ring refuses the offer without
   touching another class, and the high-water mark outlives the drain.
   Packet classes queue apart and read 0. *)
let test_merger_rings_per_class () =
  let config = { Event_merger.default_config with Event_merger.event_queue_capacity = 2 } in
  let sched, _p, merger, _carriers = merger_fixture ~config () in
  let hwm cls = Event_merger.queue_high_watermark merger cls in
  List.iter (fun n -> ignore (Event_merger.offer_event merger (timer_ev n) : bool)) [ 1; 2; 3 ];
  Alcotest.(check bool) "another class still fits" true
    (Event_merger.offer_event merger (Event.Link_change { Event.port = 2; up = true; time = 5 }));
  ignore (Event_merger.offer_packet merger Event_merger.Ingress (mk_pkt ()) : bool);
  Alcotest.(check (list int))
    "timer hwm, link hwm, ingress hwm; events and packets waiting" [ 2; 1; 0; 3; 1 ]
    [
      hwm Event.Timer_expiration;
      hwm Event.Link_status_change;
      hwm Event.Ingress_packet;
      Event_merger.events_waiting merger;
      Event_merger.packets_waiting merger;
    ];
  Scheduler.run sched;
  Alcotest.(check (list int))
    "drained, hwm kept" [ 0; 0; 2; 1 ]
    [
      Event_merger.events_waiting merger;
      Event_merger.packets_waiting merger;
      hwm Event.Timer_expiration;
      hwm Event.Link_status_change;
    ]

(* --- Shared registers --- *)

let shared_fixture mode =
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let alloc = Pisa.Register_alloc.create () in
  let reg =
    Shared_register.create ~alloc ~pipeline ~mode ~name:"qsize" ~entries:8 ~width:32 ()
  in
  (sched, pipeline, alloc, reg)

let test_multiport_immediate () =
  let _sched, _p, _alloc, reg = shared_fixture Shared_register.Multiport in
  Shared_register.event_add reg Shared_register.Enq_side 3 200;
  Alcotest.(check int) "immediately visible" 200 (Shared_register.read reg 3);
  Shared_register.event_add reg Shared_register.Deq_side 3 (-50);
  Alcotest.(check int) "decrement" 150 (Shared_register.read reg 3);
  Alcotest.(check int) "no pending" 0 (Shared_register.pending_ops reg);
  Alcotest.(check bool) "no staleness recorded" true
    (Shared_register.max_staleness_cycles reg = neg_infinity)

let test_aggregated_coalesce_and_drain () =
  let sched, _pipeline, _alloc, reg = shared_fixture Shared_register.Aggregated in
  (* Two event-side adds at cycle 0 coalesce into one dirty entry. *)
  Shared_register.event_add reg Shared_register.Enq_side 2 100;
  Shared_register.event_add reg Shared_register.Enq_side 2 50;
  Alcotest.(check int) "coalesced" 1 (Shared_register.pending_ops reg);
  Alcotest.(check int) "main still stale" 0 (Shared_register.read reg 2);
  Alcotest.(check int) "true value" 150 (Shared_register.true_value reg 2);
  (* Let 10 idle cycles pass; the drain budget then covers the op. *)
  Scheduler.run ~until:(10 * Pipeline.default_clock_period) sched;
  Alcotest.(check int) "applied after idle cycles" 150 (Shared_register.read reg 2);
  Alcotest.(check int) "none pending" 0 (Shared_register.pending_ops reg);
  Alcotest.(check int) "one applied op" 1 (Shared_register.applied_ops reg)

let test_aggregated_conservation () =
  let sched, _pipeline, _alloc, reg = shared_fixture Shared_register.Aggregated in
  let rng = Stats.Rng.create ~seed:5 in
  let truth = Array.make 8 0 in
  (* Random event-side traffic across 200 cycles. *)
  for c = 0 to 199 do
    ignore
      (Scheduler.schedule sched
         ~at:(c * Pipeline.default_clock_period)
         (fun () ->
           let i = Stats.Rng.int rng 8 in
           let delta = Stats.Rng.int rng 100 - 50 in
           truth.(i) <- truth.(i) + delta;
           let side =
             if Stats.Rng.int rng 2 = 0 then Shared_register.Enq_side else Shared_register.Deq_side
           in
           Shared_register.event_add reg side i delta))
  done;
  Scheduler.run sched;
  Shared_register.sync reg;
  for i = 0 to 7 do
    (* Values are 32-bit wrapped; compare in that domain. *)
    Alcotest.(check int)
      (Printf.sprintf "slot %d conserved" i)
      (truth.(i) land 0xffffffff)
      (Shared_register.read reg i)
  done

let test_aggregated_staleness_bounded_when_idle () =
  let sched, _pipeline, _alloc, reg = shared_fixture Shared_register.Aggregated in
  (* With an idle pipeline, staleness stays tiny: each op is applied at
     the next access. *)
  for k = 0 to 49 do
    ignore
      (Scheduler.schedule sched
         ~at:(k * 10 * Pipeline.default_clock_period)
         (fun () -> Shared_register.event_add reg Shared_register.Enq_side (k mod 8) 1))
  done;
  Scheduler.run sched;
  Shared_register.sync reg;
  let h = Shared_register.staleness reg in
  Alcotest.(check bool) "some ops applied with staleness tracked" true
    (Stats.Histogram.count h > 0);
  Alcotest.(check bool) "staleness below 15 cycles" true (Stats.Histogram.max_seen h <= 15.)

let test_aggregated_costs_three_arrays () =
  let _sched, _p, alloc, reg = shared_fixture Shared_register.Aggregated in
  Alcotest.(check int) "3x bits charged" (3 * 8 * 32) (Shared_register.total_bits reg);
  Alcotest.(check int) "allocator agrees" (3 * 8 * 32) (Pisa.Register_alloc.total_bits alloc)

let qcheck_aggregated_matches_multiport =
  (* Property: after sync, an Aggregated register holds exactly what a
     Multiport register holds under the same op sequence. *)
  QCheck.Test.make ~name:"aggregated == multiport after sync" ~count:100
    QCheck.(list (tup3 (int_bound 7) (int_range (-100) 100) bool))
    (fun ops ->
      let sched = Scheduler.create () in
      let pipeline = Pipeline.create ~sched () in
      let alloc = Pisa.Register_alloc.create () in
      let mk mode =
        Shared_register.create ~alloc ~pipeline ~mode ~name:"x" ~entries:8 ~width:32 ()
      in
      let a = mk Shared_register.Aggregated and m = mk Shared_register.Multiport in
      List.iter
        (fun (i, delta, enq) ->
          let side = if enq then Shared_register.Enq_side else Shared_register.Deq_side in
          Shared_register.event_add a side i delta;
          Shared_register.event_add m side i delta)
        ops;
      Shared_register.sync a;
      let ok = ref true in
      for i = 0 to 7 do
        if Shared_register.read a i <> Shared_register.read m i then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "event classes (Table 1)" `Quick test_event_classes;
    Alcotest.test_case "timer quantisation" `Quick test_timer_quantisation;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timers per id" `Quick test_timers_per_id;
    Alcotest.test_case "packet gen count" `Quick test_packet_gen_count;
    Alcotest.test_case "packet gen stop" `Quick test_packet_gen_reconfigure;
    Alcotest.test_case "merger piggyback" `Quick test_merger_piggyback;
    Alcotest.test_case "merger empty carrier" `Quick test_merger_empty_carrier;
    Alcotest.test_case "merger admission rate" `Quick test_merger_one_admission_per_cycle;
    Alcotest.test_case "merger priority order" `Quick test_merger_priority_order;
    Alcotest.test_case "merger bus width" `Quick test_merger_bus_width;
    Alcotest.test_case "merger packet kind order" `Quick test_merger_packet_kind_order;
    Alcotest.test_case "merger packet queue holds 256" `Quick test_merger_packet_queue_capacity;
    Alcotest.test_case "merger rejects odd-length meta" `Quick test_merger_rejects_odd_meta;
    Alcotest.test_case "merger one event/class/carrier" `Quick
      test_merger_one_event_per_class_per_carrier;
    Alcotest.test_case "merger drop accounting" `Quick test_merger_event_drop_accounting;
    Alcotest.test_case "merger first push of every class" `Quick
      test_merger_first_push_every_class;
    Alcotest.test_case "merger queue bounds" `Quick test_merger_queue_bounds;
    Alcotest.test_case "merger copies meta at offer" `Quick test_merger_copies_meta;
    Alcotest.test_case "merger rings per class" `Quick test_merger_rings_per_class;
    Alcotest.test_case "merger offer_buffer checks its class" `Quick
      test_merger_offer_buffer_checks_class;
    Alcotest.test_case "multiport immediate" `Quick test_multiport_immediate;
    Alcotest.test_case "aggregated coalesce+drain" `Quick test_aggregated_coalesce_and_drain;
    Alcotest.test_case "aggregated conservation" `Quick test_aggregated_conservation;
    Alcotest.test_case "aggregated staleness bounded" `Quick
      test_aggregated_staleness_bounded_when_idle;
    Alcotest.test_case "aggregated costs 3 arrays" `Quick test_aggregated_costs_three_arrays;
    QCheck_alcotest.to_alcotest qcheck_aggregated_matches_multiport;
  ]
