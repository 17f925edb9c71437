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

let test_stop_now () =
  let sched = Scheduler.create () in
  let src =
    Traffic.cbr ~sched ~flow ~pkt_bytes:1000 ~rate_gbps:1. ~stop:(Sim_time.ms 10)
      ~send:(fun _ -> ())
      ()
  in
  ignore (Scheduler.schedule sched ~at:(Sim_time.ms 1) (fun () -> Traffic.stop_now src));
  Scheduler.run sched;
  Alcotest.(check bool) "stopped early" true (Traffic.sent src <= 126)

let test_flowgen_population () =
  let rng = Stats.Rng.create ~seed:21 in
  let spec = { Flowgen.default_spec with Flowgen.num_flows = 300 } in
  let flows = Flowgen.generate ~rng spec in
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
  (* Ground-truth counts sum to total packets. *)
  let truth = Flowgen.true_packet_counts flows in
  let total_truth = Hashtbl.fold (fun _ c acc -> acc + c) truth 0 in
  let total = List.fold_left (fun acc f -> acc + f.Flowgen.packets) 0 flows in
  Alcotest.(check int) "truth conserves packets" total total_truth

let test_flowgen_stream_matches_generate () =
  (* The streaming and materialized forms share one draw order: for
     the same seed, collecting the stream must reproduce [generate]
     structurally — same flows, same starts, same lengths, same
     ranks. This is the contract that lets E27 pin digest goldens with
     the streaming source while small tests reason over lists. *)
  let spec =
    { Flowgen.default_spec with Flowgen.num_flows = 200; arrival_rate_per_sec = 2e6 }
  in
  let materialized = Flowgen.generate ~rng:(Stats.Rng.create ~seed:33) spec in
  let streamed = ref [] in
  Flowgen.stream ~rng:(Stats.Rng.create ~seed:33) spec ~f:(fun fd ->
      streamed := fd :: !streamed);
  let streamed = List.rev !streamed in
  Alcotest.(check int) "same count" (List.length materialized) (List.length streamed);
  List.iter2
    (fun (a : Flowgen.flow_desc) (b : Flowgen.flow_desc) ->
      Alcotest.(check bool) "identical descriptor" true
        (a.Flowgen.start = b.Flowgen.start && a.Flowgen.rank = b.Flowgen.rank
        && a.Flowgen.packets = b.Flowgen.packets
        && a.Flowgen.pkt_bytes = b.Flowgen.pkt_bytes
        && Netcore.Flow.equal a.Flowgen.flow b.Flowgen.flow))
    materialized streamed

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
      Flowgen.default_spec with
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

let test_flowgen_replay () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:23 in
  let spec =
    { Flowgen.default_spec with Flowgen.num_flows = 20; arrival_rate_per_sec = 1e6 }
  in
  let flows = Flowgen.generate ~rng spec in
  let got = ref 0 in
  ignore
    (Flowgen.replay ~sched ~flows ~rate_pps_per_flow:100_000. ~send:(fun _ -> incr got) ());
  Scheduler.run ~until:(Sim_time.ms 50) sched;
  Alcotest.(check bool) "packets flowed" true (!got > 50)

(* --- Trace record/replay --- *)

let test_trace_roundtrip () =
  let sched = Scheduler.create () in
  let trace = Workloads.Trace.create () in
  ignore
    (Traffic.cbr ~sched ~flow ~pkt_bytes:500 ~rate_gbps:1. ~stop:(Sim_time.us 100)
       ~send:(fun pkt -> Workloads.Trace.record trace ~sched ~port:2 pkt)
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
  let expected =
    List.map
      (fun (e : Workloads.Trace.entry) -> (e.Workloads.Trace.at, e.Workloads.Trace.port, e.Workloads.Trace.pkt_bytes))
      (Workloads.Trace.entries trace)
  in
  Alcotest.(check (list (triple int int int))) "same arrivals" expected (List.rev !got)

let test_trace_time_offset () =
  let trace = Workloads.Trace.create () in
  Workloads.Trace.add trace
    { Workloads.Trace.at = Sim_time.us 5; port = 0; flow; pkt_bytes = 100 };
  let sched = Scheduler.create () in
  let at = ref 0 in
  ignore
    (Workloads.Trace.replay trace ~sched ~time_offset:(Sim_time.us 10)
       ~send:(fun ~port:_ _ -> at := Scheduler.now sched)
       ());
  Scheduler.run sched;
  Alcotest.(check int) "offset applied" (Sim_time.us 15) !at;
  Alcotest.(check int) "bytes accounted" 100 (Workloads.Trace.total_bytes trace)

let test_trace_ordering_enforced () =
  let trace = Workloads.Trace.create () in
  Workloads.Trace.add trace { Workloads.Trace.at = 100; port = 0; flow; pkt_bytes = 64 };
  Alcotest.check_raises "backwards time" (Invalid_argument "Trace.add: entries must be time-ordered")
    (fun () -> Workloads.Trace.add trace { Workloads.Trace.at = 50; port = 0; flow; pkt_bytes = 64 })

let suite =
  [
    Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
    Alcotest.test_case "cbr start/stop" `Quick test_cbr_start_stop;
    Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
    Alcotest.test_case "on/off duty cycle" `Quick test_on_off_duty_cycle;
    Alcotest.test_case "stop_now" `Quick test_stop_now;
    Alcotest.test_case "flowgen population" `Quick test_flowgen_population;
    Alcotest.test_case "flowgen stream = generate" `Quick test_flowgen_stream_matches_generate;
    Alcotest.test_case "flowgen 1M flows, O(live) memory" `Quick test_flowgen_streaming_memory;
    Alcotest.test_case "flowgen replay" `Quick test_flowgen_replay;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace time offset" `Quick test_trace_time_offset;
    Alcotest.test_case "trace ordering" `Quick test_trace_ordering_enforced;
  ]
