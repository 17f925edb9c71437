(* Behavioural tests for the data-plane applications. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Ipv4_addr = Netcore.Ipv4_addr
module Arch = Evcore.Arch
module Program = Evcore.Program
module Event_switch = Evcore.Event_switch
module Control_plane = Evcore.Control_plane
module Traffic = Workloads.Traffic

let mk_flow ?(dst = 1) i =
  Flow.make
    ~src:(Ipv4_addr.host ~subnet:1 i)
    ~dst:(Ipv4_addr.host ~subnet:2 dst)
    ~src_port:(1000 + i) ~dst_port:80 ()

let mk_switch ?(arch = Arch.event_pisa_full) ?tm_config ~sched spec =
  let config = Event_switch.default_config arch in
  let config =
    match tm_config with
    | None -> config
    | Some tm_config -> { config with Event_switch.tm_config }
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  for p = 0 to 3 do
    Event_switch.set_port_tx sw ~port:p (fun _ -> ())
  done;
  sw

(* Runs [topo] on one scheduler, every switch on the full event
   architecture; [on_shard] installs traffic, faults and sinks. *)
let run_topo ~until ~program ~on_shard topo =
  Parsim.run
    (Parsim.config ~until
       ~switch_config:(fun _ -> Event_switch.default_config Arch.event_pisa_full)
       ~program ~on_shard ())
    topo

(* Two switches joined by port 1 (primary) and port 2 (backup). *)
let frr_pair =
  Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)); ((0, 2), (1, 2)) ] ~hosts:[]

(* --- Microburst --- *)

let test_microburst_detects_culprit () =
  let sched = Scheduler.create () in
  let spec, det = Apps.Microburst.program ~threshold_bytes:20_000 ~out_port:(fun _ -> 3) () in
  let sw = mk_switch ~sched spec in
  (* Two ports of the same flow at 10G each into one 10G output. *)
  List.iter
    (fun port ->
      ignore
        (Traffic.burst_once ~sched ~flow:(mk_flow 9) ~pkt_bytes:1000 ~count:30 ~rate_gbps:10.
           ~at:(Sim_time.us 10)
           ~send:(fun pkt -> Event_switch.inject sw ~port pkt)
           ()))
    [ 0; 1 ];
  Scheduler.run sched;
  Alcotest.(check int) "one culprit" 1 (Apps.Microburst.detection_count det);
  let d = List.hd (Apps.Microburst.detections det) in
  Alcotest.(check bool) "over threshold" true (d.Apps.Microburst.occupancy_bytes > 20_000)

let test_microburst_no_false_positive () =
  let sched = Scheduler.create () in
  let spec, det = Apps.Microburst.program ~threshold_bytes:20_000 ~out_port:(fun _ -> 3) () in
  let sw = mk_switch ~sched spec in
  (* Light traffic never accumulates 20KB for one flow. *)
  for i = 0 to 3 do
    ignore
      (Traffic.cbr ~sched ~flow:(mk_flow i) ~pkt_bytes:500 ~rate_gbps:1. ~stop:(Sim_time.us 500)
         ~send:(fun pkt -> Event_switch.inject sw ~port:(i mod 3) pkt)
         ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "no detections" 0 (Apps.Microburst.detection_count det)

let test_microburst_state_modes () =
  (* Aggregated mode charges 3x the multiport state (Figure 3). *)
  let bits mode =
    let sched = Scheduler.create () in
    let spec, det = Apps.Microburst.program ~slots:256 ~threshold_bytes:1 ~out_port:(fun _ -> 0) () in
    let config = Event_switch.default_config Arch.event_pisa_full in
    let config = { config with Event_switch.state_mode = mode } in
    ignore (Event_switch.create ~sched ~config ~program:spec ());
    Apps.Microburst.state_bits det
  in
  Alcotest.(check int) "multiport" (256 * 32) (bits Devents.Shared_register.Multiport);
  Alcotest.(check int) "aggregated 3x" (3 * 256 * 32) (bits Devents.Shared_register.Aggregated)

(* --- Snappy --- *)

let test_snappy_state_exceeds_event_driven () =
  let sched = Scheduler.create () in
  let spec, det = Apps.Snappy.program ~threshold_bytes:10_000 ~out_port:(fun _ -> 3) () in
  let sw = mk_switch ~arch:Arch.baseline_psa ~sched spec in
  Event_switch.inject sw ~port:0
    (Packet.udp_packet ~src:(Ipv4_addr.host ~subnet:1 1) ~dst:(Ipv4_addr.host ~subnet:2 1)
       ~src_port:1 ~dst_port:2 ~payload_len:100 ());
  Scheduler.run sched;
  (* 8 snapshots x (2 x 512 x 32) + ring bookkeeping. *)
  Alcotest.(check bool) "at least 4x the single array" true
    (Apps.Snappy.state_bits det >= 4 * 1024 * 32)

let test_snappy_state_layout () =
  (* 8 snapshot sketches of 2 x 512 32-bit counters, plus one 32-bit
     byte count per snapshot. *)
  let sched = Scheduler.create () in
  let spec, det = Apps.Snappy.program ~threshold_bytes:10_000 ~out_port:(fun _ -> 3) () in
  ignore (mk_switch ~arch:Arch.baseline_psa ~sched spec);
  Alcotest.(check int) "state bits" ((8 * 2 * 512 * 32) + (8 * 32)) (Apps.Snappy.state_bits det)

let test_snappy_detects_big_burst () =
  let sched = Scheduler.create () in
  let spec, det = Apps.Snappy.program ~threshold_bytes:20_000 ~out_port:(fun _ -> 3) () in
  let sw = mk_switch ~arch:Arch.baseline_psa ~sched spec in
  List.iter
    (fun port ->
      ignore
        (Traffic.burst_once ~sched ~flow:(mk_flow 9) ~pkt_bytes:1000 ~count:40 ~rate_gbps:10.
           ~at:(Sim_time.us 10)
           ~send:(fun pkt -> Event_switch.inject sw ~port pkt)
           ()))
    [ 0; 1 ];
  Scheduler.run sched;
  Alcotest.(check bool) "detected" true (Apps.Snappy.detection_count det >= 1)

(* --- CMS reset --- *)

let drive_heavy_flow sched sw =
  ignore
    (Traffic.cbr ~sched ~flow:(mk_flow 1) ~pkt_bytes:200 ~rate_gbps:2. ~stop:(Sim_time.us 900)
       ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
       ())

let test_cms_timer_reset_reports_windows () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Cms_reset.program ~mode:Apps.Cms_reset.Timer_reset ~window:(Sim_time.us 200)
      ~threshold_packets:50 ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  drive_heavy_flow sched sw;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "five windows" 5 (Apps.Cms_reset.resets app);
  let reports = Apps.Cms_reset.reports app in
  Alcotest.(check int) "five reports" 5 (List.length reports);
  (* The 2 Gb/s flow (1250 pkt/200us window) is a heavy hitter in every
     full window. *)
  List.iter
    (fun (r : Apps.Cms_reset.window_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "window %d has the heavy flow" r.Apps.Cms_reset.window_index)
        true
        (List.length r.Apps.Cms_reset.heavy_hitters >= 1))
    (List.filteri (fun i _ -> i < 4) reports)

let test_cms_state_layout () =
  (* One heavy-hitter sketch: 3 rows of 1024 32-bit counters. *)
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Cms_reset.program ~mode:Apps.Cms_reset.Timer_reset ~window:(Sim_time.us 200)
      ~threshold_packets:50 ~out_port:(fun _ -> 3) ()
  in
  ignore (mk_switch ~sched spec);
  Alcotest.(check int) "state bits" (3 * 1024 * 32) (Apps.Cms_reset.state_bits app)

let test_cms_cp_reset_lags () =
  let sched = Scheduler.create () in
  let cp = Control_plane.create ~sched ~rng:(Stats.Rng.create ~seed:3) () in
  let spec, app =
    Apps.Cms_reset.program ~mode:(Apps.Cms_reset.Control_plane_reset cp)
      ~window:(Sim_time.us 500) ~threshold_packets:50 ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~arch:Arch.baseline_psa ~sched spec in
  drive_heavy_flow sched sw;
  Scheduler.run ~until:(Sim_time.ms 3) sched;
  Alcotest.(check bool) "resets happened" true (Apps.Cms_reset.resets app >= 4);
  let lag = Apps.Cms_reset.reset_lag app in
  Alcotest.(check bool) "lag at least the channel latency" true
    (Stats.Welford.mean lag >= 200_000. (* ns *));
  Alcotest.(check bool) "cp ops counted" true (Control_plane.ops cp >= 4)

(* --- Flow rate --- *)

let test_flow_rate_estimate () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Flow_rate.program ~slots:64 ~window_slices:4 ~slice:(Sim_time.us 100)
      ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  let flow = mk_flow 2 in
  ignore
    (Traffic.cbr ~sched ~flow ~pkt_bytes:1000 ~rate_gbps:2. ~stop:(Sim_time.ms 1)
       ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
       ());
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  let slot = Netcore.Hashes.fold_range (Flow.hash_addresses flow) 64 in
  let est = Apps.Flow_rate.estimate_bps app ~flow_slot:slot *. 8. /. 1e9 in
  Alcotest.(check (float 0.1)) "2 Gb/s estimated" 2.0 est;
  Alcotest.(check bool) "rotations happened" true (Apps.Flow_rate.rotations app >= 9)

(* --- AQM --- *)

let congest sched sw =
  List.iteri
    (fun i rate_gbps ->
      ignore
        (Traffic.cbr ~sched ~flow:(mk_flow i) ~pkt_bytes:1000 ~rate_gbps ~stop:(Sim_time.ms 1)
           ~send:(fun pkt -> Event_switch.inject sw ~port:(i mod 3) pkt)
           ()))
    [ 2.; 4.; 8. ]

let test_aqm_taildrop_overflow_only () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Aqm.program ~policy:Apps.Aqm.Taildrop ~buffer_bytes:100_000 ~out_port:(fun _ -> 3) ()
  in
  let tm_config =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 100_000 }
  in
  let sw = mk_switch ~tm_config ~sched spec in
  congest sched sw;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "no early drops" 0 (Apps.Aqm.early_drops app);
  Alcotest.(check bool) "tail drops happened" true
    (Tmgr.Traffic_manager.drops (Event_switch.tm sw) > 0)

let test_aqm_fred_limits_hog () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Aqm.program
      ~policy:(Apps.Aqm.Fred { multiplier = 0.6 })
      ~buffer_bytes:100_000 ~out_port:(fun _ -> 3) ()
  in
  let tm_config =
    { Tmgr.Traffic_manager.default_config with Tmgr.Traffic_manager.buffer_bytes = 100_000 }
  in
  let sw = mk_switch ~tm_config ~sched spec in
  congest sched sw;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check bool) "early drops happened" true (Apps.Aqm.early_drops app > 0);
  Alcotest.(check int) "no tail drops" 0 (Tmgr.Traffic_manager.drops (Event_switch.tm sw))

let test_aqm_active_flow_count () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Aqm.program ~policy:Apps.Aqm.Taildrop ~buffer_bytes:100_000 ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  congest sched sw;
  (* Peek at the active-flow estimate while the buffer is loaded. *)
  let active_mid = ref 0 in
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.us 500) (fun () ->
         active_mid := Apps.Aqm.active_flows app));
  (* Leave enough time after the sources stop for the ~500KB backlog
     to drain at 10 Gb/s. *)
  Scheduler.run ~until:(Sim_time.ms 2) sched;
  Alcotest.(check int) "three flows active mid-run" 3 !active_mid;
  Alcotest.(check int) "zero active after drain" 0 (Apps.Aqm.active_flows app)

(* --- Policer --- *)

let test_policer_under_rate_passes_everything () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Policer.program
      ~mode:(Apps.Policer.Timer_bucket { refill_period = Sim_time.us 10 })
      ~cir_bytes_per_sec:250_000_000. (* 2 Gb/s *)
      ~burst_bytes:64_000 ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  let src =
    Traffic.cbr ~sched ~flow:(mk_flow 1) ~pkt_bytes:1000 ~rate_gbps:1. ~stop:(Sim_time.ms 1)
      ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
      ()
  in
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  Alcotest.(check int) "nothing dropped" (Traffic.sent_bytes src)
    (Apps.Policer.total_accepted_bytes app)

let test_policer_enforces_cir () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Policer.program
      ~mode:(Apps.Policer.Timer_bucket { refill_period = Sim_time.us 10 })
      ~cir_bytes_per_sec:125_000_000. (* 1 Gb/s *)
      ~burst_bytes:16_000 ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  ignore
    (Traffic.cbr ~sched ~flow:(mk_flow 1) ~pkt_bytes:1000 ~rate_gbps:4. ~stop:(Sim_time.ms 2)
       ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
       ());
  Scheduler.run ~until:(Sim_time.ms 2) sched;
  let accepted_rate =
    float_of_int (Apps.Policer.total_accepted_bytes app) /. 2e-3
  in
  Alcotest.(check bool) "within 15% of CIR" true
    (Float.abs (accepted_rate -. 125e6) /. 125e6 < 0.15)

(* --- Fast reroute --- *)

let test_frr_event_driven_switchover () =
  let mk () =
    Apps.Fast_reroute.program ~mode:Apps.Fast_reroute.Event_driven ~primary:1 ~backup:2 ()
  in
  let (spec, app), (spec_b, _) = (mk (), mk ()) in
  ignore
    (run_topo ~until:(Sim_time.ms 1)
       ~program:(fun sw -> if sw = 0 then spec else spec_b)
       ~on_shard:(fun ctx ->
         List.iter (fun (_, sw) -> Event_switch.set_port_tx sw ~port:0 (fun _ -> ())) ctx.switches;
         let link = List.assoc 0 ctx.links and sw_a = List.assoc 0 ctx.switches in
         ignore
           (Scheduler.schedule ctx.sched ~at:(Sim_time.us 100) (fun () -> Tmgr.Link.fail link));
         ignore
           (Scheduler.schedule ctx.sched ~at:(Sim_time.us 200) (fun () ->
                Event_switch.inject sw_a ~port:0
                  (Packet.udp_packet ~src:(Ipv4_addr.host ~subnet:1 1)
                     ~dst:(Ipv4_addr.host ~subnet:2 1) ~src_port:1 ~dst_port:2
                     ~payload_len:100 ()))))
       frr_pair
      : Parsim.result);
  Alcotest.(check bool) "switched to backup" true (Apps.Fast_reroute.using_backup app);
  (* PHY detection delay is 10us. *)
  Alcotest.(check (option int)) "failover at fail+10us"
    (Some (Sim_time.us 110))
    (Apps.Fast_reroute.failover_time app);
  Alcotest.(check int) "packet took backup" 1 (Apps.Fast_reroute.switched_packets app)

let test_frr_failback () =
  let mk () =
    Apps.Fast_reroute.program ~mode:Apps.Fast_reroute.Event_driven ~primary:1 ~backup:2 ()
  in
  let (spec_a, app), (spec_b, _) = (mk (), mk ()) in
  ignore
    (run_topo ~until:(Sim_time.ms 1)
       ~program:(fun sw -> if sw = 0 then spec_a else spec_b)
       ~on_shard:(fun ctx ->
         let link = List.assoc 0 ctx.links in
         ignore
           (Scheduler.schedule ctx.sched ~at:(Sim_time.us 100) (fun () -> Tmgr.Link.fail link));
         ignore
           (Scheduler.schedule ctx.sched ~at:(Sim_time.us 300) (fun () -> Tmgr.Link.restore link)))
       frr_pair
      : Parsim.result);
  Alcotest.(check bool) "back on primary" false (Apps.Fast_reroute.using_backup app);
  Alcotest.(check (option int)) "failback at restore+10us"
    (Some (Sim_time.us 310))
    (Apps.Fast_reroute.failback_time app)

(* --- Liveness --- *)

(* Two echoing monitors on one link, failed and restored at the given
   times when set. *)
let run_liveness ~until ?fail_restore () =
  let apps =
    Array.init 2 (fun _ ->
        Apps.Liveness.program
          ~mode:
            (Apps.Liveness.Event_driven
               { probe_period = Sim_time.us 50; check_period = Sim_time.us 50 })
          ~timeout:(Sim_time.us 150) ~neighbor_port:1 ~out_port:(fun _ -> 0) ())
  in
  let r =
    run_topo ~until
      ~program:(fun sw -> fst apps.(sw))
      ~on_shard:(fun ctx ->
        List.iter (fun (_, sw) -> Event_switch.set_port_tx sw ~port:0 (fun _ -> ())) ctx.switches;
        let link = List.assoc 0 ctx.links in
        Option.iter
          (fun (fail, restore) ->
            ignore (Scheduler.schedule ctx.sched ~at:fail (fun () -> Tmgr.Link.fail link));
            ignore (Scheduler.schedule ctx.sched ~at:restore (fun () -> Tmgr.Link.restore link)))
          fail_restore)
      (Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[])
  in
  (snd apps.(0), snd apps.(1), List.assoc 0 r.ctxs.(0).switches)

let test_liveness_stays_alive () =
  let app_a, app_b, _ = run_liveness ~until:(Sim_time.ms 2) () in
  Alcotest.(check (option int)) "a never declares dead" None (Apps.Liveness.declared_dead_at app_a);
  Alcotest.(check (option int)) "b never declares dead" None (Apps.Liveness.declared_dead_at app_b);
  Alcotest.(check bool) "replies flowed" true (Apps.Liveness.replies_heard app_a > 30)

let test_liveness_detects_and_recovers () =
  let app_a, _, sw_a =
    run_liveness ~until:(Sim_time.ms 3) ~fail_restore:(Sim_time.ms 1, Sim_time.ms 2) ()
  in
  (match Apps.Liveness.declared_dead_at app_a with
  | None -> Alcotest.fail "failure not detected"
  | Some t ->
      Alcotest.(check bool) "detected after failure" true (t > Sim_time.ms 1);
      Alcotest.(check bool) "detected within 2x timeout + checks" true
        (t - Sim_time.ms 1 <= Sim_time.us 400));
  Alcotest.(check bool) "recovery noticed" true
    (Apps.Liveness.declared_alive_at app_a <> None);
  Alcotest.(check bool) "monitor notified" true (Event_switch.notification_count sw_a >= 2)

(* --- WFQ --- *)

let test_wfq_weighted_shares () =
  let sched = Scheduler.create () in
  (* Flows hash to distinct slots; give slot-based weights 1 vs 3. *)
  let f1 = mk_flow 1 and f2 = mk_flow 2 in
  let slot f = Netcore.Hashes.fold_range (Flow.hash f) 64 in
  QCheck.assume (slot f1 <> slot f2);
  let w1 = 1 and w2 = 3 in
  let spec, _app =
    Apps.Wfq.program ~slots:64
      ~weight_of:(fun ~flow_slot -> if flow_slot = slot f2 then w2 else w1)
      ~out_port:(fun _ -> 3) ()
  in
  let tm_config =
    {
      Tmgr.Traffic_manager.default_config with
      Tmgr.Traffic_manager.policy = Tmgr.Traffic_manager.Pifo_sched;
      (* Rank-based PIFO eviction is the dropper; keep the byte pool
         non-binding so weighted loss (not blind tail drop) decides. *)
      pifo_capacity = 128;
      buffer_bytes = 4 * 1024 * 1024;
    }
  in
  let sw = mk_switch ~tm_config ~sched spec in
  let recv = Hashtbl.create 4 in
  Event_switch.set_port_tx sw ~port:3 (fun pkt ->
      match Packet.flow pkt with
      | Some f ->
          let k = f.Flow.src_port in
          Hashtbl.replace recv k (Packet.len pkt + Option.value (Hashtbl.find_opt recv k) ~default:0)
      | None -> ());
  (* Both flows offer 10 Gb/s into one 10 Gb/s port: 2x overload. *)
  List.iter
    (fun flow ->
      ignore
        (Traffic.cbr ~sched ~flow ~pkt_bytes:1000 ~rate_gbps:10. ~stop:(Sim_time.us 500)
           ~send:(fun pkt -> Event_switch.inject sw ~port:(flow.Flow.src_port mod 2) pkt)
           ()))
    [ f1; f2 ];
  Scheduler.run ~until:(Sim_time.us 500) sched;
  let got f = float_of_int (Option.value (Hashtbl.find_opt recv f.Flow.src_port) ~default:0) in
  let share = got f2 /. Float.max 1. (got f1) in
  Alcotest.(check bool)
    (Printf.sprintf "weighted share about 3 (got %.2f)" share)
    true
    (share > 2.6 && share < 3.4)

(* --- NetCache --- *)

let test_netcache_hits_after_promotion () =
  let sched = Scheduler.create () in
  let spec, cache =
    Apps.Netcache.program ~cache_size:8 ~promote_threshold:3 ~with_timers:true ~server_port:3
      ~client_port:(fun _ -> 0) ()
  in
  let sw = mk_switch ~sched spec in
  let to_server = ref 0 in
  Event_switch.set_port_tx sw ~port:3 (fun _ -> incr to_server);
  for i = 0 to 19 do
    ignore
      (Scheduler.schedule sched
         ~at:(i * Sim_time.us 5)
         (fun () -> Event_switch.inject sw ~port:0 (Apps.Netcache.get_packet ~client:0 ~key:42)))
  done;
  Scheduler.run ~until:(Sim_time.us 200) sched;
  (* First 3 miss (promotion threshold), the rest hit. *)
  Alcotest.(check int) "misses" 3 (Apps.Netcache.cache_misses cache);
  Alcotest.(check int) "hits" 17 (Apps.Netcache.cache_hits cache);
  Alcotest.(check int) "server saw only misses" 3 !to_server;
  Alcotest.(check (list int)) "key cached" [ 42 ] (Apps.Netcache.cached_keys cache)

let test_netcache_eviction_bounded () =
  let sched = Scheduler.create () in
  let spec, cache =
    Apps.Netcache.program ~cache_size:4 ~promote_threshold:1 ~with_timers:false ~server_port:3
      ~client_port:(fun _ -> 0) ()
  in
  let sw = mk_switch ~arch:Arch.baseline_psa ~sched spec in
  for key = 1 to 10 do
    ignore
      (Scheduler.schedule sched
         ~at:(key * Sim_time.us 5)
         (fun () -> Event_switch.inject sw ~port:0 (Apps.Netcache.get_packet ~client:0 ~key)))
  done;
  Scheduler.run ~until:(Sim_time.us 200) sched;
  Alcotest.(check int) "cache bounded" 4 (List.length (Apps.Netcache.cached_keys cache));
  Alcotest.(check int) "evictions" 6 (Apps.Netcache.evictions cache)

(* --- INT telemetry --- *)

let test_int_heartbeat_only_when_quiet () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Int_telemetry.program
      ~strategy:
        (Apps.Int_telemetry.Aggregated
           { report_period = Sim_time.us 100; occupancy_threshold = 1_000_000; heartbeat_every = 5 })
      ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  ignore
    (Traffic.cbr ~sched ~flow:(mk_flow 1) ~pkt_bytes:500 ~rate_gbps:1. ~stop:(Sim_time.ms 1)
       ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
       ());
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  (* 10 windows, heartbeat every 5: exactly 2 reports, no anomalies. *)
  Alcotest.(check int) "heartbeats" 2 (Apps.Int_telemetry.report_count app);
  Alcotest.(check int) "no anomalies" 0 (Apps.Int_telemetry.anomalies_reported app)

(* --- HULA --- *)

let hula_2x2 () =
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

let test_hula_probes_populate_best_hops () =
  let hula = hula_2x2 () in
  ignore
    (run_topo ~until:(Sim_time.ms 1) ~program:(Apps.Hula.program hula) ~on_shard:ignore
       (Evcore.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1)
      : Parsim.result);
  Alcotest.(check bool) "leaf0 knows a hop to leaf1" true
    (Apps.Hula.best_hop hula ~leaf:0 ~dst_leaf:1 <> None);
  Alcotest.(check bool) "leaf1 knows a hop to leaf0" true
    (Apps.Hula.best_hop hula ~leaf:1 ~dst_leaf:0 <> None);
  Alcotest.(check bool) "probes flowed" true (Apps.Hula.probes_delivered hula > 20);
  (* Origination period is exact with the data-plane generator. *)
  let gaps = Apps.Hula.origination_gaps_us hula ~leaf:0 in
  Alcotest.(check bool) "gaps recorded" true (Array.length gaps > 5);
  Array.iter (fun g -> Alcotest.(check (float 0.2)) "exact 50us period" 50. g) gaps

let test_hula_delivery_end_to_end () =
  let hula = hula_2x2 () in
  let r =
    run_topo ~until:(Sim_time.ms 1 + Sim_time.us 100) ~program:(Apps.Hula.program hula)
      ~on_shard:(fun ctx ->
        ignore
          (Traffic.cbr ~sched:ctx.sched
             ~flow:
               (Netcore.Flow.make
                  ~src:(Ipv4_addr.host ~subnet:0 0)
                  ~dst:(Ipv4_addr.host ~subnet:1 0)
                  ~src_port:5000 ~dst_port:6000 ())
             ~pkt_bytes:1000 ~rate_gbps:1. ~stop:(Sim_time.ms 1)
             ~send:(Evcore.Host.send (List.assoc 0 ctx.hosts))
             ()
            : Traffic.t))
      (Evcore.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1)
  in
  let received = r.host_received.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "most packets delivered (%d)" received)
    true (received > 100)

(* --- PIE --- *)

let test_pie_controls_queue () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Aqm.program
      ~policy:
        (Apps.Aqm.Pie
           {
             target_delay = Sim_time.us 20;
             update_period = Sim_time.us 50;
             alpha = 100.;
             beta = 800.;
           })
      ~buffer_bytes:(256 * 1024)
      ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  congest sched sw;
  Scheduler.run ~until:(Sim_time.ms 2) sched;
  Alcotest.(check bool) "drop probability ramped" true (Apps.Aqm.drop_probability app > 0.1);
  Alcotest.(check bool) "early drops happened" true (Apps.Aqm.early_drops app > 100);
  Alcotest.(check int) "no tail drops" 0 (Tmgr.Traffic_manager.drops (Event_switch.tm sw))

let test_pie_idle_probability_decays () =
  let sched = Scheduler.create () in
  let spec, app =
    Apps.Aqm.program
      ~policy:
        (Apps.Aqm.Pie
           {
             target_delay = Sim_time.us 20;
             update_period = Sim_time.us 50;
             alpha = 100.;
             beta = 800.;
           })
      ~buffer_bytes:(256 * 1024)
      ~out_port:(fun _ -> 3) ()
  in
  let sw = mk_switch ~sched spec in
  (* Congest for 1 ms, then idle: p must come back down (PIE decays by
     alpha*target per update when the queue is empty, so give it a few
     milliseconds). *)
  congest sched sw;
  let p_peak = ref 0. in
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.ms 1) (fun () ->
         p_peak := Apps.Aqm.drop_probability app));
  Scheduler.run ~until:(Sim_time.ms 8) sched;
  Alcotest.(check bool) "probability decayed when idle" true
    (Apps.Aqm.drop_probability app < 0.05 && Apps.Aqm.drop_probability app < !p_peak)

(* --- State migration --- *)

let test_state_migration_event_driven () =
  let app = Apps.State_migration.create ~slots:16 () in
  let flow = mk_flow 5 in
  let probe_pkt () =
    Packet.udp_packet ~src:flow.Flow.src ~dst:flow.Flow.dst ~src_port:flow.Flow.src_port
      ~dst_port:flow.Flow.dst_port ~payload_len:100 ()
  in
  let slot = Apps.State_migration.flow_slot app (probe_pkt ()) in
  ignore
    (run_topo ~until:(Sim_time.ms 1)
       ~program:(fun sw ->
         if sw = 0 then
           Apps.State_migration.active_program app
             ~mode:(Apps.State_migration.Event_driven { chunk_period = Sim_time.us 1 })
             ~primary:1 ~backup:2
         else Apps.State_migration.standby_program app ~out_port:0)
       ~on_shard:(fun ctx ->
         let sw_a = List.assoc 0 ctx.switches in
         List.iter (fun (_, sw) -> Event_switch.set_port_tx sw ~port:0 (fun _ -> ())) ctx.switches;
         (* 10 packets before the failure of the sink's link, 5 after. *)
         let inject_at at =
           ignore
             (Scheduler.schedule ctx.sched ~at (fun () ->
                  Event_switch.inject sw_a ~port:0 (probe_pkt ())))
         in
         for i = 1 to 10 do
           inject_at (i * Sim_time.us 2)
         done;
         let primary = List.assoc 1 ctx.links in
         ignore
           (Scheduler.schedule ctx.sched ~at:(Sim_time.us 50) (fun () -> Tmgr.Link.fail primary));
         for i = 1 to 5 do
           inject_at (Sim_time.us 100 + (i * Sim_time.us 2))
         done)
       (* A's port 2 is the backup to B's port 1; a sink host sits on A's
          primary port 1. *)
       (Evcore.Topology.make ~switches:2 ~links:[ ((0, 2), (1, 1)) ] ~hosts:[ (0, 1) ])
      : Parsim.result);
  Alcotest.(check bool) "migration completed" true
    (Apps.State_migration.migration_completed_at app <> None);
  Alcotest.(check int) "all chunks installed" 16 (Apps.State_migration.chunks_installed app);
  Alcotest.(check int) "standby has full count" 15
    (Apps.State_migration.counter app ~role:`Standby ~slot)

(* --- multi-bit ECN --- *)

let test_ecn_quantise () =
  Alcotest.(check int) "empty" 0 (Apps.Ecn_mark.quantise ~buffer_bytes:1000 ~levels:16 0);
  Alcotest.(check int) "half" 8 (Apps.Ecn_mark.quantise ~buffer_bytes:1000 ~levels:16 500);
  Alcotest.(check int) "full clamps" 15 (Apps.Ecn_mark.quantise ~buffer_bytes:1000 ~levels:16 2000);
  Alcotest.(check int) "1-bit" 1 (Apps.Ecn_mark.quantise ~buffer_bytes:1000 ~levels:2 600)

let test_ecn_marks_only_under_congestion () =
  let sched = Scheduler.create () in
  let spec, app = Apps.Ecn_mark.program ~levels:16 ~buffer_bytes:50_000 ~out_port:(fun _ -> 3) () in
  let sw = mk_switch ~sched spec in
  let max_mark = ref 0 in
  Event_switch.set_port_tx sw ~port:3 (fun pkt ->
      max_mark := max !max_mark pkt.Packet.meta.Packet.mark);
  (* Light phase: no marks expected. *)
  ignore
    (Traffic.cbr ~sched ~flow:(mk_flow 1) ~pkt_bytes:500 ~rate_gbps:1. ~stop:(Sim_time.us 200)
       ~send:(fun pkt -> Event_switch.inject sw ~port:0 pkt)
       ());
  Scheduler.run sched;
  Alcotest.(check int) "no marks when uncongested" 0 !max_mark;
  (* Congestion: two ports of 10G into one. *)
  List.iter
    (fun port ->
      ignore
        (Traffic.burst_once ~sched ~flow:(mk_flow (10 + port)) ~pkt_bytes:1000 ~count:40
           ~rate_gbps:10. ~at:(Sim_time.us 300)
           ~send:(fun pkt -> Event_switch.inject sw ~port pkt)
           ()))
    [ 0; 1 ];
  Scheduler.run sched;
  Alcotest.(check bool) "marks under congestion" true (!max_mark > 4);
  Alcotest.(check bool) "marks counted" true (Apps.Ecn_mark.marks_applied app > 0)

(* --- Stateful firewall --- *)

module Fw = Apps.Stateful_fw
module Tcp = Netcore.Tcp

let fw_pkt ?(flags = 0) ?(sport = 4000) () =
  Packet.tcp_packet
    ~src:(Ipv4_addr.host ~subnet:1 1)
    ~dst:(Ipv4_addr.host ~subnet:2 1)
    ~src_port:sport ~dst_port:80 ~payload_len:100 ~flags ()

let test_fw_mark_spoof_blocked () =
  (* Regression: session state must be driven by parsed TCP flags, not
     the writable meta.mark side channel. A non-TCP packet with a
     spoofed mark must not open or establish a session. *)
  let sched = Scheduler.create () in
  let spec, fw = Fw.program ~out_port:(fun _ -> 1) () in
  let sw = mk_switch ~sched spec in
  let spoofed =
    Packet.udp_packet
      ~src:(Ipv4_addr.host ~subnet:1 1)
      ~dst:(Ipv4_addr.host ~subnet:2 1)
      ~src_port:4000 ~dst_port:80 ~payload_len:100 ()
  in
  spoofed.Packet.meta.Packet.mark <- Fw.input_syn;
  Alcotest.(check int) "no TCP header classifies as non-tcp" Fw.input_non_tcp
    (Fw.input_of spoofed);
  Event_switch.inject sw ~port:0 spoofed;
  let spoofed2 = { spoofed with Packet.meta = { spoofed.Packet.meta with Packet.mark = Fw.input_data } } in
  Event_switch.inject sw ~port:0 spoofed2;
  (* Bounded run: the firewall's periodic sweep timer re-arms forever. *)
  Scheduler.run ~until:(Sim_time.us 50) sched;
  Alcotest.(check int) "spoofed packets all blocked" 2 (Fw.blocked fw);
  Alcotest.(check int) "nothing allowed" 0 (Fw.allowed fw);
  Alcotest.(check bool) "no established session" true
    (Pisa.Efsm.state_of (Fw.efsm fw) ~key:(Fw.key_of spoofed) <> Some Fw.s_est)

let test_fw_flag_driven_lifecycle () =
  (* The real handshake drives the session: SYN -> syn-sent, ACK ->
     established, data flows, RST aborts, post-close data is blocked. *)
  let sched = Scheduler.create () in
  let spec, fw = Fw.program ~out_port:(fun _ -> 1) () in
  let sw = mk_switch ~sched spec in
  let key = Fw.key_of (fw_pkt ()) in
  let state () = Pisa.Efsm.state_of (Fw.efsm fw) ~key in
  (* Bounded runs (the sweep timer re-arms forever), well inside the
     500 µs idle timeout. *)
  let t = ref 0 in
  let inject ?flags () =
    Event_switch.inject sw ~port:0 (fw_pkt ?flags ());
    t := !t + Sim_time.us 10;
    Scheduler.run ~until:!t sched
  in
  inject ~flags:Tcp.flag_syn ();
  Alcotest.(check (option int)) "SYN opens" (Some Fw.s_syn) (state ());
  inject ~flags:Tcp.flag_ack ();
  Alcotest.(check (option int)) "handshake ACK establishes" (Some Fw.s_est) (state ());
  inject ~flags:Tcp.flag_ack ();
  inject ~flags:(Tcp.flag_rst lor Tcp.flag_ack) ();
  Alcotest.(check (option int)) "RST closes" (Some Fw.s_closed) (state ());
  let blocked_before = Fw.blocked fw in
  inject ~flags:Tcp.flag_ack ();
  Alcotest.(check int) "post-close data blocked" (blocked_before + 1) (Fw.blocked fw);
  Alcotest.(check int) "SYN, ACK, data, RST allowed" 4 (Fw.allowed fw)

let suite =
  [
    Alcotest.test_case "microburst detects culprit" `Quick test_microburst_detects_culprit;
    Alcotest.test_case "microburst no false positive" `Quick test_microburst_no_false_positive;
    Alcotest.test_case "microburst state modes" `Quick test_microburst_state_modes;
    Alcotest.test_case "snappy state cost" `Quick test_snappy_state_exceeds_event_driven;
    Alcotest.test_case "snappy state layout" `Quick test_snappy_state_layout;
    Alcotest.test_case "snappy detects burst" `Quick test_snappy_detects_big_burst;
    Alcotest.test_case "cms timer reset windows" `Quick test_cms_timer_reset_reports_windows;
    Alcotest.test_case "cms state layout" `Quick test_cms_state_layout;
    Alcotest.test_case "cms cp reset lags" `Quick test_cms_cp_reset_lags;
    Alcotest.test_case "flow rate estimate" `Quick test_flow_rate_estimate;
    Alcotest.test_case "aqm taildrop" `Quick test_aqm_taildrop_overflow_only;
    Alcotest.test_case "aqm fred limits hog" `Quick test_aqm_fred_limits_hog;
    Alcotest.test_case "aqm active flow count" `Quick test_aqm_active_flow_count;
    Alcotest.test_case "policer under rate" `Quick test_policer_under_rate_passes_everything;
    Alcotest.test_case "policer enforces cir" `Quick test_policer_enforces_cir;
    Alcotest.test_case "frr switchover" `Quick test_frr_event_driven_switchover;
    Alcotest.test_case "frr failback" `Quick test_frr_failback;
    Alcotest.test_case "liveness stays alive" `Quick test_liveness_stays_alive;
    Alcotest.test_case "liveness detects + recovers" `Quick test_liveness_detects_and_recovers;
    Alcotest.test_case "wfq weighted shares" `Quick test_wfq_weighted_shares;
    Alcotest.test_case "netcache promotion + hits" `Quick test_netcache_hits_after_promotion;
    Alcotest.test_case "netcache bounded eviction" `Quick test_netcache_eviction_bounded;
    Alcotest.test_case "int heartbeat reports" `Quick test_int_heartbeat_only_when_quiet;
    Alcotest.test_case "hula best hops" `Quick test_hula_probes_populate_best_hops;
    Alcotest.test_case "hula end-to-end delivery" `Quick test_hula_delivery_end_to_end;
    Alcotest.test_case "pie controls the queue" `Quick test_pie_controls_queue;
    Alcotest.test_case "pie decays when idle" `Quick test_pie_idle_probability_decays;
    Alcotest.test_case "state migration" `Quick test_state_migration_event_driven;
    Alcotest.test_case "ecn quantiser" `Quick test_ecn_quantise;
    Alcotest.test_case "ecn marks under congestion" `Quick test_ecn_marks_only_under_congestion;
    Alcotest.test_case "fw: mark spoof cannot fake a session" `Quick test_fw_mark_spoof_blocked;
    Alcotest.test_case "fw: TCP flags drive the lifecycle" `Quick test_fw_flag_driven_lifecycle;
  ]
