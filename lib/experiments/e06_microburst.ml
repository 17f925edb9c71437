(* E6 — §2 worked example: microburst culprit detection.

   Three culprit flows dump simultaneous bursts into one output port
   while background flows behave. The event-driven detector (exact
   per-flow occupancy from enqueue/dequeue events, checked at ingress
   before enqueue) is compared against the Snappy-like baseline
   (snapshot sketches at egress). The paper's claims: ~4x or more
   state reduction, detection moved to ingress (before the queueing
   delay), and exact rather than approximate occupancy. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Flow = Netcore.Flow
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Traffic = Workloads.Traffic

let slots = 1024
let threshold_bytes = 30_000
let congested_port = 3

type variant_result = {
  variant : string;
  state_bits : int;
  detected_slots : int list;
  latencies_ns : float list;  (** per true-positive culprit *)
}

type result = {
  culprit_slots : int list;
  event_driven : variant_result;
  event_driven_aggregated_bits : int;
  snappy : variant_result;
}

let flow_slot flow = Netcore.Hashes.fold_range (Flow.hash_addresses flow) slots

let background_flows =
  List.init 6 (fun i ->
      Flow.make
        ~src:(Netcore.Ipv4_addr.host ~subnet:1 (10 + i))
        ~dst:(Netcore.Ipv4_addr.host ~subnet:4 1)
        ~src_port:(2000 + i) ~dst_port:80 ())

let culprit_flows =
  List.init 3 (fun i ->
      Flow.make
        ~src:(Netcore.Ipv4_addr.host ~subnet:2 (50 + i))
        ~dst:(Netcore.Ipv4_addr.host ~subnet:4 2)
        ~src_port:(3000 + i) ~dst_port:80 ())

let burst_start = Sim_time.us 50

let drive_workload ~sched ~inject =
  (* Background: 6 flows x 0.3 Gb/s of 500B packets across ports 0-2. *)
  List.iteri
    (fun i flow ->
      ignore
        (Traffic.cbr ~sched ~flow ~pkt_bytes:500 ~rate_gbps:0.3 ~stop:(Sim_time.us 200)
           ~send:(fun pkt -> inject (i mod 3) pkt)
           ()))
    background_flows;
  (* Culprits: 60 x 1000B back-to-back at 10G each (60 KB > threshold),
     all starting at the same instant on different input ports. *)
  List.iteri
    (fun i flow ->
      ignore
        (Traffic.burst_once ~sched ~flow ~pkt_bytes:1000 ~count:60 ~rate_gbps:10.
           ~at:burst_start
           ~send:(fun pkt -> inject i pkt)
           ()))
    culprit_flows

let latency_of detections =
  List.filter_map
    (fun (slot, time) ->
      if List.exists (fun f -> flow_slot f = slot) culprit_flows then
        Some (Sim_time.to_ns (time - burst_start))
      else None)
    detections

let run_event_driven ?metrics ~state_mode () =
  let sched = Scheduler.create () in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let config = { config with Event_switch.state_mode } in
  let spec, detector =
    Apps.Microburst.program ~slots ~threshold_bytes ~out_port:(fun _ -> congested_port) ()
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  let obs_labels =
    [
      ( "variant",
        match state_mode with
        | Devents.Shared_register.Multiport -> "event-driven-multiport"
        | Devents.Shared_register.Aggregated -> "event-driven-aggregated" );
    ]
  in
  (match metrics with
  | Some m -> Scheduler.set_metrics ~labels:obs_labels sched m
  | None -> ());
  Event_switch.set_port_tx sw ~port:congested_port (fun _ -> ());
  drive_workload ~sched ~inject:(fun port pkt -> Event_switch.inject sw ~port pkt);
  Scheduler.run sched;
  (match metrics with
  | Some m ->
      Scheduler.export_metrics ~labels:obs_labels sched m;
      Event_switch.export_metrics ~labels:obs_labels sw m
  | None -> ());
  let detections =
    List.map
      (fun (d : Apps.Microburst.detection) ->
        (d.Apps.Microburst.flow_id, d.Apps.Microburst.time))
      (Apps.Microburst.detections detector)
  in
  {
    variant =
      (match state_mode with
      | Devents.Shared_register.Multiport -> "event-driven (multiport)"
      | Devents.Shared_register.Aggregated -> "event-driven (aggregated)");
    state_bits = Apps.Microburst.state_bits detector;
    detected_slots = List.sort_uniq Int.compare (List.map fst detections);
    latencies_ns = latency_of detections;
  }

let run_snappy ?metrics () =
  let sched = Scheduler.create () in
  let config = Event_switch.default_config Arch.baseline_psa in
  let spec, detector =
    Apps.Snappy.program ~slots ~threshold_bytes ~out_port:(fun _ -> congested_port) ()
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  let obs_labels = [ ("variant", "snappy-baseline") ] in
  (match metrics with
  | Some m -> Scheduler.set_metrics ~labels:obs_labels sched m
  | None -> ());
  Event_switch.set_port_tx sw ~port:congested_port (fun _ -> ());
  drive_workload ~sched ~inject:(fun port pkt -> Event_switch.inject sw ~port pkt);
  Scheduler.run sched;
  (match metrics with
  | Some m ->
      Scheduler.export_metrics ~labels:obs_labels sched m;
      Event_switch.export_metrics ~labels:obs_labels sw m
  | None -> ());
  let detections =
    List.map
      (fun (d : Apps.Snappy.detection) -> (d.Apps.Snappy.flow_id, d.Apps.Snappy.time))
      (Apps.Snappy.detections detector)
  in
  {
    variant = "snappy baseline (PSA)";
    state_bits = Apps.Snappy.state_bits detector;
    detected_slots = List.sort_uniq Int.compare (List.map fst detections);
    latencies_ns = latency_of detections;
  }

let run ?metrics ?(seed = 42) () =
  ignore seed;
  let aggregated =
    run_event_driven ?metrics ~state_mode:Devents.Shared_register.Aggregated ()
  in
  {
    culprit_slots = List.sort_uniq Int.compare (List.map flow_slot culprit_flows);
    event_driven = run_event_driven ?metrics ~state_mode:Devents.Shared_register.Multiport ();
    event_driven_aggregated_bits = aggregated.state_bits;
    snappy = run_snappy ?metrics ();
  }

let precision_recall ~truth ~detected =
  let inter = List.filter (fun s -> List.mem s truth) detected in
  let p =
    if detected = [] then 1. else float_of_int (List.length inter) /. float_of_int (List.length detected)
  in
  let r =
    if truth = [] then 1. else float_of_int (List.length inter) /. float_of_int (List.length truth)
  in
  (p, r)

let print r =
  Report.section "E6 / §2 — microburst culprit detection: event-driven vs Snappy";
  Report.kv "culprits" (String.concat ", " (List.map string_of_int r.culprit_slots));
  Report.blank ();
  let row v =
    let p, rc = precision_recall ~truth:r.culprit_slots ~detected:v.detected_slots in
    let lat =
      if v.latencies_ns = [] then "-" else Report.ns (Stats.Summary.mean (Array.of_list v.latencies_ns))
    in
    [
      v.variant;
      string_of_int v.state_bits;
      string_of_int (List.length v.detected_slots);
      Report.f2 p;
      Report.f2 rc;
      lat;
    ]
  in
  Report.table
    ~headers:[ "variant"; "state bits"; "detections"; "precision"; "recall"; "mean latency" ]
    ~rows:[ row r.event_driven; row r.snappy ];
  Report.blank ();
  let ratio = float_of_int r.snappy.state_bits /. float_of_int r.event_driven.state_bits in
  Report.kv "state reduction (paper: at least 4x)" (Printf.sprintf "%.1fx" ratio);
  Report.kv "aggregated-mode bits (Fig 3: 3 arrays)"
    (string_of_int r.event_driven_aggregated_bits);
  let _, ed_recall = precision_recall ~truth:r.culprit_slots ~detected:r.event_driven.detected_slots in
  let ed_lat =
    if r.event_driven.latencies_ns = [] then infinity
    else Stats.Summary.mean (Array.of_list r.event_driven.latencies_ns)
  in
  let sn_lat =
    if r.snappy.latencies_ns = [] then infinity
    else Stats.Summary.mean (Array.of_list r.snappy.latencies_ns)
  in
  Report.kv "event-driven finds all culprits" (if ed_recall >= 0.999 then "PASS" else "FAIL");
  Report.kv "state reduction at least 4x" (if ratio >= 4. then "PASS" else "FAIL");
  Report.kv "event-driven detects earlier (pre-enqueue)"
    (if ed_lat < sn_lat then "PASS" else "FAIL")

let name = "microburst"
