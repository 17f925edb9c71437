(* E8 — §3 Congestion Aware Forwarding: HULA on a leaf-spine fabric.

   One spine is degraded to 1 Gb/s; leaf0's hosts push 6 Gb/s towards
   leaf1. Flow-hash ECMP keeps sending a share of flows through the
   degraded spine and loses it to its saturated port. HULA probes
   (periodically flooded, carrying max path utilisation) steer traffic
   onto healthy spines. The probe generation mechanism is the paper's
   §1 point: the data-plane packet generator emits probes at an exact
   period, while the control plane generates them late and jittery.
   All variants run on the same event architecture so only the probe
   mechanism differs. *)

module Sim_time = Eventsim.Sim_time
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Control_plane = Evcore.Control_plane
module Traffic = Workloads.Traffic

let num_leaves = 3
let num_spines = 3
let hosts_per_leaf = 2
let degraded_spine = 0
let stop_at = Sim_time.ms 10

type variant_result = {
  variant : string;
  goodput_gbps : float;
  offered_gbps : float;
  probe_gap_mean_us : float;
  probe_gap_std_us : float;
  probes_delivered : int;
  hop_changes : int;
  degraded_spine_drops : int;
  reordered : int;  (** out-of-order data arrivals at leaf1's hosts *)
}

type result = {
  ecmp : variant_result;
  event_driven : variant_result;
  flowlet : variant_result;
  cp_probes : variant_result;
}

let params =
  {
    Apps.Hula.default_params with
    Apps.Hula.num_leaves;
    num_spines;
    hosts_per_leaf;
    probe_period = Sim_time.us 100;
    util_period = Sim_time.us 50;
  }

let run_variant ?flowlet_timeout ~variant mk_mode () =
  (* One HULA instance for the whole fabric, created with the first
     switch: control-plane probes need the run's scheduler. *)
  let hula = ref None in
  let hula_of (ctx : Evcore.Program.ctx) =
    match !hula with
    | Some h -> h
    | None ->
        let mode, wire = mk_mode ~sched:ctx.sched in
        let h = (Apps.Hula.create { params with Apps.Hula.flowlet_timeout } mode, wire) in
        hula := Some h;
        h
  in
  let switch_config sw =
    let base = Event_switch.default_config Arch.event_pisa_full in
    if sw <> num_leaves + degraded_spine then base
    else
      {
        base with
        Event_switch.tm_config =
          { base.Event_switch.tm_config with Tmgr.Traffic_manager.port_rate_gbps = 1. };
      }
  in
  let reordered = ref 0 in
  let sources = ref [] in
  let on_shard (ctx : Parsim.shard_ctx) =
    (snd (Option.get !hula)) ctx;
    (* Reordering detector: packet uids are monotone per flow at the
       sender, so a smaller uid after a larger one means reordering. *)
    let max_uid = Hashtbl.create 16 in
    for h = hosts_per_leaf to (2 * hosts_per_leaf) - 1 do
      Host.set_receiver (List.assoc h ctx.hosts) (fun _ pkt ->
          match Netcore.Packet.flow pkt with
          | Some f ->
              let key = f.Netcore.Flow.src_port in
              let prev = Option.value (Hashtbl.find_opt max_uid key) ~default:0 in
              if pkt.Netcore.Packet.uid < prev then incr reordered
              else Hashtbl.replace max_uid key pkt.Netcore.Packet.uid
          | None -> ())
    done;
    (* 12 flows leaf0 -> leaf1 at 0.5 Gb/s each. *)
    sources :=
      List.init 12 (fun i ->
          let src_host = i mod hosts_per_leaf in
          let dst_host = i mod hosts_per_leaf in
          let flow =
            Netcore.Flow.make
              ~src:(Netcore.Ipv4_addr.host ~subnet:0 src_host)
              ~dst:(Netcore.Ipv4_addr.host ~subnet:1 dst_host)
              ~src_port:(5000 + i) ~dst_port:(6000 + i) ()
          in
          Traffic.cbr ~sched:ctx.sched ~flow ~pkt_bytes:1000 ~rate_gbps:0.5 ~stop:stop_at
            ~send:(fun pkt -> Host.send (List.assoc src_host ctx.hosts) pkt)
            ())
  in
  let r =
    Parsim.run
      (Parsim.config ~until:(stop_at + Sim_time.us 500) ~switch_config
         ~program:(fun sw ctx -> Apps.Hula.program (fst (hula_of ctx)) sw ctx)
         ~on_shard ())
      (Evcore.Topology.leaf_spine ~leaves:num_leaves ~spines:num_spines ~hosts_per_leaf)
  in
  let hula, _ = Option.get !hula in
  let received_bytes =
    Array.fold_left ( + ) 0 (Array.sub r.host_received_bytes hosts_per_leaf hosts_per_leaf)
  in
  let offered_bytes = List.fold_left (fun acc s -> acc + Traffic.sent_bytes s) 0 !sources in
  let seconds = Sim_time.to_sec stop_at in
  (* Probe origination period jitter at leaf1 (the probes leaf0 uses). *)
  let gaps = Apps.Hula.origination_gaps_us hula ~leaf:1 in
  {
    variant;
    goodput_gbps = float_of_int (received_bytes * 8) /. seconds /. 1e9;
    offered_gbps = float_of_int (offered_bytes * 8) /. seconds /. 1e9;
    probe_gap_mean_us = (if Array.length gaps = 0 then 0. else Stats.Summary.mean gaps);
    probe_gap_std_us = (if Array.length gaps = 0 then 0. else Stats.Summary.std gaps);
    probes_delivered = Apps.Hula.probes_delivered hula;
    hop_changes = Apps.Hula.hop_changes hula;
    degraded_spine_drops =
      Tmgr.Traffic_manager.drops
        (Event_switch.tm (List.assoc (num_leaves + degraded_spine) r.ctxs.(0).switches));
    reordered = !reordered;
  }

let run ?(seed = 42) () =
  let ecmp ~sched:_ = (Apps.Hula.No_probes, fun _ -> ()) in
  let event ~sched:_ = (Apps.Hula.Event_driven, fun _ -> ()) in
  let cp ~sched =
    let cp = Control_plane.create ~sched ~rng:(Stats.Rng.create ~seed) () in
    let inject = ref (fun _ _ -> ()) in
    ( Apps.Hula.Cp_probes { cp; inject },
      fun (ctx : Parsim.shard_ctx) ->
        inject :=
          fun leaf pkt -> Event_switch.inject_from_control_plane (List.assoc leaf ctx.switches) pkt
    )
  in
  {
    ecmp = run_variant ~variant:"ecmp (no probes)" ecmp ();
    event_driven = run_variant ~variant:"hula, data-plane probes" event ();
    flowlet =
      run_variant ~flowlet_timeout:(Sim_time.us 50) ~variant:"hula + flowlets (50us)" event ();
    cp_probes = run_variant ~variant:"hula, control-plane probes" cp ();
  }

let print r =
  Report.section "E8 / §3 — HULA load balancing: probe generation mechanisms";
  Report.kv "fabric"
    (Printf.sprintf "%d leaves x %d spines, spine %d degraded to 1 Gb/s; 6 Gb/s leaf0->leaf1"
       num_leaves num_spines degraded_spine);
  Report.blank ();
  let row v =
    [
      v.variant;
      Report.f2 v.goodput_gbps;
      Report.f2 v.offered_gbps;
      Report.f1 v.probe_gap_mean_us;
      Report.f1 v.probe_gap_std_us;
      string_of_int v.probes_delivered;
      string_of_int v.hop_changes;
      string_of_int v.degraded_spine_drops;
      string_of_int v.reordered;
    ]
  in
  Report.table
    ~headers:
      [
        "variant"; "goodput Gb/s"; "offered"; "probe gap us"; "gap std"; "probes"; "hop chg";
        "drops@slow"; "reorder";
      ]
    ~rows:[ row r.ecmp; row r.event_driven; row r.flowlet; row r.cp_probes ];
  Report.blank ();
  Report.kv "HULA delivers the full offered load"
    (if r.event_driven.goodput_gbps >= 0.99 *. r.event_driven.offered_gbps then "PASS" else "FAIL");
  Report.kv "ECMP loses traffic to the degraded spine"
    (if r.ecmp.goodput_gbps < 0.97 *. r.ecmp.offered_gbps && r.ecmp.degraded_spine_drops > 0 then
       "PASS"
     else "FAIL");
  Report.kv "data-plane probes are periodic (std < 5us)"
    (if r.event_driven.probe_gap_std_us < 5. then "PASS" else "FAIL");
  Report.kv "control-plane probes jitter (std > 5x)"
    (if r.cp_probes.probe_gap_std_us > 5. *. Float.max 0.1 r.event_driven.probe_gap_std_us then
       "PASS"
     else "FAIL");
  Report.kv "flowlets deliver full goodput with less reordering"
    (if
       r.flowlet.goodput_gbps >= 0.99 *. r.flowlet.offered_gbps
       && r.flowlet.reordered <= r.event_driven.reordered
     then "PASS"
     else "FAIL")

let name = "hula"
