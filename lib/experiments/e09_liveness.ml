(* E9 — §5: liveness monitoring in the data plane.

   Two switches ping each other through a link; the link fails
   mid-run. The event-driven monitor (packet-generator probes +
   timer-checked timeout) detects the failure within roughly
   timeout + check period; the baseline monitor, whose probes and
   timeout checks both live in the control plane, needs coarser
   periods (the op-rate budget) and pays channel latency, so detection
   is an order of magnitude slower. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Control_plane = Evcore.Control_plane

let fail_at = Sim_time.ms 5

type variant_result = {
  variant : string;
  detection_latency_ns : float option;
  probes_sent : int;
  replies_heard : int;
  notifications : int;
}

type result = { event_driven : variant_result; cp_driven : variant_result }

let run_variant ~seed ~timeout mode_of arch variant =
  let app_a = ref None and wires = ref [] in
  let program sw (ctx : Evcore.Program.ctx) =
    let mode, wire = mode_of ~sched:ctx.sched ~seed:(seed + sw) in
    let spec, app =
      Apps.Liveness.program ~mode ~timeout ~neighbor_port:1 ~out_port:(fun _ -> 0) ()
    in
    if sw = 0 then app_a := Some app;
    wires := (sw, wire) :: !wires;
    spec ctx
  in
  let on_shard (ctx : Parsim.shard_ctx) =
    List.iter (fun (sw, wire) -> wire (List.assoc sw ctx.switches)) !wires;
    List.iter (fun (_, sw) -> Event_switch.set_port_tx sw ~port:0 (fun _ -> ())) ctx.switches;
    let link = List.assoc 0 ctx.links in
    ignore (Scheduler.schedule ctx.sched ~at:fail_at (fun () -> Tmgr.Link.fail link))
  in
  let r =
    Parsim.run
      (Parsim.config ~until:(Sim_time.ms 30)
         ~switch_config:(fun _ -> Event_switch.default_config arch)
         ~program ~on_shard ())
      (Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[])
  in
  let app_a = Option.get !app_a in
  {
    variant;
    detection_latency_ns =
      Option.map
        (fun t -> Sim_time.to_ns (t - fail_at))
        (Apps.Liveness.declared_dead_at app_a);
    probes_sent = Apps.Liveness.probes_sent app_a;
    replies_heard = Apps.Liveness.replies_heard app_a;
    notifications = Event_switch.notification_count (List.assoc 0 r.ctxs.(0).switches);
  }

let run ?(seed = 42) () =
  let event_mode ~sched:_ ~seed:_ =
    ( Apps.Liveness.Event_driven
        { probe_period = Sim_time.us 100; check_period = Sim_time.us 50 },
      fun _sw -> () )
  in
  let cp_mode ~sched ~seed =
    let cp = Control_plane.create ~sched ~rng:(Stats.Rng.create ~seed) () in
    let inject = ref (fun _ -> ()) in
    ( Apps.Liveness.Cp_driven
        {
          cp;
          probe_period = Sim_time.ms 1;
          check_period = Sim_time.ms 1;
          inject;
        },
      fun sw -> inject := Event_switch.inject_from_control_plane sw )
  in
  (* A monitor cannot time out faster than it probes: each variant's
     timeout is 2.5x its probe period. The event-driven monitor can
     afford a 100us probe period (packets generated in the data plane);
     the control plane realistically probes at 1ms. *)
  {
    event_driven =
      run_variant ~seed ~timeout:(Sim_time.us 250) event_mode Arch.event_pisa_full
        "event-driven";
    cp_driven =
      run_variant ~seed ~timeout:(Sim_time.us 2500) cp_mode Arch.baseline_psa "control-plane";
  }

let print r =
  Report.section "E9 / §5 — neighbor liveness: failure detection latency";
  Report.kv "scenario" "bidirectional echo; link fails at 5ms";
  Report.blank ();
  let row v =
    [
      v.variant;
      (match v.detection_latency_ns with None -> "not detected" | Some l -> Report.ns l);
      string_of_int v.probes_sent;
      string_of_int v.replies_heard;
      string_of_int v.notifications;
    ]
  in
  Report.table
    ~headers:[ "variant"; "detection latency"; "probes"; "replies"; "notifications" ]
    ~rows:[ row r.event_driven; row r.cp_driven ];
  Report.blank ();
  match (r.event_driven.detection_latency_ns, r.cp_driven.detection_latency_ns) with
  | Some ed, Some cp ->
      Report.kv "both detect the failure" "PASS";
      Report.kv "event-driven at least 3x faster" (if ed *. 3. <= cp then "PASS" else "FAIL")
  | _ -> Report.kv "both detect the failure" "FAIL"

let name = "liveness"
