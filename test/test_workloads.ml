(* Tests for traffic sources, flow generation and trace replay. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Traffic = Workloads.Traffic
module Flowgen = Workloads.Flowgen
module Flow = Netcore.Flow
module Ipv4_addr = Netcore.Ipv4_addr

let flow = Flow.make ~src:(Ipv4_addr.host ~subnet:1 1) ~dst:(Ipv4_addr.host ~subnet:2 1) ()

let test_cbr_rate () =
  let sched = Scheduler.create () in
  let bytes = ref 0 in
  let src =
    Traffic.cbr ~sched ~flow ~pkt_bytes:1000 ~rate_gbps:2. ~stop:(Sim_time.ms 1)
      ~send:(fun pkt -> bytes := !bytes + Netcore.Packet.len pkt)
      ()
  in
  Scheduler.run sched;
  (* 2 Gb/s for 1 ms = 250 KB. *)
  Alcotest.(check int) "sent bytes" 250_000 !bytes;
  Alcotest.(check int) "counter agrees" !bytes (Traffic.sent_bytes src);
  Alcotest.(check int) "packets" 250 (Traffic.sent src)

let test_cbr_start_stop () =
  let sched = Scheduler.create () in
  let times = ref [] in
  ignore
    (Traffic.cbr ~sched ~flow ~pkt_bytes:1000 ~rate_gbps:8. ~start:(Sim_time.us 10)
       ~stop:(Sim_time.us 15)
       ~send:(fun _ -> times := Scheduler.now sched :: !times)
       ());
  Scheduler.run sched;
  List.iter
    (fun t ->
      Alcotest.(check bool) "within window" true (t >= Sim_time.us 10 && t < Sim_time.us 15))
    !times;
  Alcotest.(check int) "1us gap -> 5 packets" 5 (List.length !times)

let test_poisson_mean_rate () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:11 in
  let src =
    Traffic.poisson ~sched ~rng ~flow ~pkt_bytes:100 ~rate_pps:1_000_000. ~stop:(Sim_time.ms 20)
      ~send:(fun _ -> ())
      ()
  in
  Scheduler.run sched;
  let rate = float_of_int (Traffic.sent src) /. 20e-3 in
  Alcotest.(check bool) "within 5% of 1Mpps" true (Float.abs (rate -. 1e6) /. 1e6 < 0.05)

let test_on_off_duty_cycle () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:13 in
  let src =
    Traffic.on_off ~sched ~rng ~flow ~pkt_bytes:1000 ~burst_rate_gbps:10.
      ~on_time:(Sim_time.us 100) ~off_time:(Sim_time.us 100) ~stop:(Sim_time.ms 2)
      ~send:(fun _ -> ())
      ()
  in
  Scheduler.run sched;
  (* 50% duty at 10G over 2 ms ~ 1.25 MB, i.e. ~1250 packets. *)
  let sent = Traffic.sent src in
  Alcotest.(check bool)
    (Printf.sprintf "sent about 1250 (got %d)" sent)
    true
    (sent > 1000 && sent < 1500)

(* [count] packets [pkt_bytes * 8 / rate] apart, the first at [at]. *)
let test_burst_once () =
  let sched = Scheduler.create () in
  let times = ref [] in
  let src =
    Traffic.burst_once ~sched ~flow ~pkt_bytes:1000 ~count:4 ~rate_gbps:10. ~at:(Sim_time.us 3)
      ~send:(fun _ -> times := Scheduler.now sched :: !times)
      ()
  in
  Scheduler.run sched;
  let gap = Sim_time.tx_time ~bytes:1000 ~gbps:10. in
  Alcotest.(check (list int)) "back to back from at"
    (List.init 4 (fun i -> Sim_time.us 3 + (i * gap)))
    (List.rev !times);
  Alcotest.(check (pair int int)) "sent, bytes" (4, 4000) (Traffic.sent src, Traffic.sent_bytes src)

(* The population the distribution tests draw. *)
let spec =
  {
    Flowgen.num_flows = 500;
    key_space = 200;
    zipf_alpha = 1.1;
    mean_packets = 20.;
    max_packets = max_int;
    pkt_bytes = 256;
    arrival_rate_per_sec = 50_000.;
  }

(* Runs [spec] through [install] to completion; the flows in arrival
   order, and the source's counters. *)
let install_flows ~seed spec =
  let sched = Scheduler.create () in
  let flows = ref [] in
  let st =
    Flowgen.install ~sched ~rng:(Stats.Rng.create ~seed) ~rate_pps_per_flow:1e6
      ~on_flow:(fun fd -> flows := fd :: !flows)
      spec
      ~send:(fun _ -> ())
      ()
  in
  Scheduler.run sched;
  (List.rev !flows, st)

let test_flowgen_population () =
  let flows, st = install_flows ~seed:21 { spec with Flowgen.num_flows = 300 } in
  Alcotest.(check int) "count" 300 (List.length flows);
  (* Start times are sorted. *)
  let sorted =
    let rec go = function
      | (a : Flowgen.flow_desc) :: (b :: _ as rest) ->
          a.Flowgen.start <= b.Flowgen.start && go rest
      | [ _ ] | [] -> true
    in
    go flows
  in
  Alcotest.(check bool) "sorted by start" true sorted;
  (* Zipf: rank 1 appears far more often than rank 50. *)
  let count r = List.length (List.filter (fun f -> f.Flowgen.rank = r) flows) in
  Alcotest.(check bool) "rank 1 popular" true (count 1 > 3 * max 1 (count 50));
  (* Every drawn packet is sent. *)
  let total = List.fold_left (fun acc f -> acc + f.Flowgen.packets) 0 flows in
  Alcotest.(check int) "drawn packets all sent" total st.Flowgen.packets_sent

(* One seed, one population: every descriptor repeats, in order. *)
let test_flowgen_repeats_per_seed () =
  let key (f : Flowgen.flow_desc) = (f.Flowgen.start, f.Flowgen.rank, f.Flowgen.packets) in
  let a, sa = install_flows ~seed:33 spec and b, sb = install_flows ~seed:33 spec in
  Alcotest.(check (list (triple int int int))) "same starts, ranks, lengths" (List.map key a)
    (List.map key b);
  Alcotest.(check bool) "same five-tuples" true
    (List.map (fun f -> f.Flowgen.flow) a = List.map (fun f -> f.Flowgen.flow) b);
  Alcotest.(check int) "same packets sent" sa.Flowgen.packets_sent sb.Flowgen.packets_sent;
  let c, _ = install_flows ~seed:34 spec in
  Alcotest.(check bool) "another seed, another population" true
    (List.map key a <> List.map key c)

(* [arrival_stop] ends the arrival chain, not the flows already
   started: every flow starts before it, and each one sends all its
   packets, some of them after the stop. *)
let test_flowgen_arrival_stop () =
  let sched = Scheduler.create () in
  let stop = Sim_time.ms 2 in
  let flows = ref [] and ended = ref 0 in
  let st =
    Flowgen.install ~sched ~rng:(Stats.Rng.create ~seed:37) ~arrival_stop:stop
      ~rate_pps_per_flow:1e5
      ~on_flow:(fun fd -> flows := fd :: !flows)
      ~on_flow_end:(fun _ -> incr ended)
      spec
      ~send:(fun _ -> ())
      ()
  in
  Scheduler.run sched;
  let n = List.length !flows in
  (* 500 arrivals at 50,000 a second would take 10 ms. *)
  Alcotest.(check bool) (Printf.sprintf "the chain stopped early (%d flows)" n) true
    (n > 0 && n < spec.Flowgen.num_flows);
  Alcotest.(check bool) "every start before the stop" true
    (List.for_all (fun f -> f.Flowgen.start < stop) !flows);
  Alcotest.(check (list int)) "started = finished = ended, none live" [ n; n; n; 0 ]
    [ st.Flowgen.flows_started; st.Flowgen.flows_finished; !ended; st.Flowgen.live_flows ];
  Alcotest.(check int) "every drawn packet sent"
    (List.fold_left (fun acc f -> acc + f.Flowgen.packets) 0 !flows)
    st.Flowgen.packets_sent;
  Alcotest.(check bool) "the last packets leave after the stop" true (Scheduler.now sched > stop)

(* The default five-tuple of rank [r]: host [r] of subnet 1 to host [r]
   of subnet 2, from port [1024 + r]; one five-tuple per rank. *)
let test_flowgen_default_flows () =
  let flows, _ = install_flows ~seed:39 spec in
  List.iter
    (fun (f : Flowgen.flow_desc) ->
      let r = f.Flowgen.rank in
      let fl = f.Flowgen.flow in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d's five-tuple" r)
        true
        (Ipv4_addr.equal fl.Flow.src (Ipv4_addr.host ~subnet:1 r)
        && Ipv4_addr.equal fl.Flow.dst (Ipv4_addr.host ~subnet:2 r)
        && fl.Flow.src_port = 1024 + r))
    flows;
  let distinct xs = List.length (List.sort_uniq compare xs) in
  Alcotest.(check int) "as many five-tuples as ranks"
    (distinct (List.map (fun f -> f.Flowgen.rank) flows))
    (distinct (List.map (fun f -> f.Flowgen.flow) flows))

let test_flowgen_streaming_memory () =
  (* The reason E27 can run 1M-flow mixes at all: [install] keeps
     O(live flows) state, never O(num_flows). Run a million-flow
     population to completion and check the heap halfway through the
     arrival chain has grown by far less than a materialized
     population would cost (a million flow_desc records is >= 15M
     words; we demand under 2M over baseline). *)
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:35 in
  let spec =
    {
      spec with
      Flowgen.num_flows = 1_000_000;
      key_space = 10_000;
      mean_packets = 2.;
      max_packets = 3;
      arrival_rate_per_sec = 5e8;
    }
  in
  Gc.full_major ();
  let baseline = (Gc.stat ()).Gc.live_words in
  (* Probe the heap once, at the 500k-th arrival, via the hook. *)
  let mid_words = ref 0 in
  let stats = ref None in
  let s =
    Flowgen.install ~sched ~rng ~rate_pps_per_flow:1e7
      ~on_flow:(fun _ ->
        match !stats with
        | Some (st : Flowgen.source_stats) when !mid_words = 0 && st.Flowgen.flows_started >= 500_000 ->
            Gc.full_major ();
            mid_words := (Gc.stat ()).Gc.live_words
        | _ -> ())
      spec
      ~send:(fun _ -> ())
      ()
  in
  stats := Some s;
  Scheduler.run sched;
  let stats = s in
  Alcotest.(check int) "all flows arrived" 1_000_000 stats.Flowgen.flows_started;
  Alcotest.(check int) "all flows finished" 1_000_000 stats.Flowgen.flows_finished;
  Alcotest.(check int) "no flow left live" 0 stats.Flowgen.live_flows;
  Alcotest.(check bool) "probe fired" true (!mid_words > 0);
  let growth = !mid_words - baseline in
  Alcotest.(check bool)
    (Printf.sprintf "heap growth at 500k flows under 2M words (got %d)" growth)
    true
    (growth < 2_000_000)

(* --- Trace record/replay --- *)

let test_trace_roundtrip () =
  let sched = Scheduler.create () in
  let trace = Workloads.Trace.create () in
  let sent = ref [] in
  ignore
    (Traffic.cbr ~sched ~flow ~pkt_bytes:500 ~rate_gbps:1. ~stop:(Sim_time.us 100)
       ~send:(fun pkt ->
         sent := (Scheduler.now sched, 2, Netcore.Packet.len pkt) :: !sent;
         Workloads.Trace.record trace ~sched ~port:2 pkt)
       ());
  Scheduler.run sched;
  let n = Workloads.Trace.length trace in
  Alcotest.(check bool) "recorded" true (n > 10);
  (* Replay into a fresh clock: identical arrival times and sizes. *)
  let sched2 = Scheduler.create () in
  let got = ref [] in
  let scheduled =
    Workloads.Trace.replay trace ~sched:sched2
      ~send:(fun ~port pkt ->
        got := (Scheduler.now sched2, port, Netcore.Packet.len pkt) :: !got)
      ()
  in
  Scheduler.run sched2;
  Alcotest.(check int) "all scheduled" n scheduled;
  Alcotest.(check int) "all delivered" n (List.length !got);
  Alcotest.(check (list (triple int int int))) "same arrivals" (List.rev !sent) (List.rev !got)

let test_trace_ordering_enforced () =
  let trace = Workloads.Trace.create () in
  let late = Scheduler.create () in
  Scheduler.run ~until:100 late;
  Workloads.Trace.record trace ~sched:late ~port:0 (Traffic.make_packet ~sched:late ~flow ~pkt_bytes:64);
  let early = Scheduler.create () in
  Alcotest.check_raises "backwards time" (Invalid_argument "Trace.add: entries must be time-ordered")
    (fun () ->
      Workloads.Trace.record trace ~sched:early ~port:0
        (Traffic.make_packet ~sched:early ~flow ~pkt_bytes:64))

let suite =
  [
    Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
    Alcotest.test_case "cbr start/stop" `Quick test_cbr_start_stop;
    Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
    Alcotest.test_case "on/off duty cycle" `Quick test_on_off_duty_cycle;
    Alcotest.test_case "burst_once back to back" `Quick test_burst_once;
    Alcotest.test_case "flowgen population" `Quick test_flowgen_population;
    Alcotest.test_case "flowgen repeats per seed" `Quick test_flowgen_repeats_per_seed;
    Alcotest.test_case "flowgen arrival_stop ends arrivals, not flows" `Quick
      test_flowgen_arrival_stop;
    Alcotest.test_case "flowgen default five-tuple per rank" `Quick test_flowgen_default_flows;
    Alcotest.test_case "flowgen 1M flows, O(live) memory" `Quick test_flowgen_streaming_memory;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace ordering" `Quick test_trace_ordering_enforced;
  ]
