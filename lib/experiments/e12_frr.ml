(* E12 — §3 Network Management / §5: fast re-route on link failure.

   Host -> switch A -> (primary | backup parallel links) -> switch B
   -> sink. The primary link fails mid-run. With link-status-change
   events the data plane flips to the backup one PHY detection delay
   after the failure; the baseline control plane polls the PHY and
   then pushes a table update, losing every packet sent to the dead
   link in between. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Control_plane = Evcore.Control_plane
module Traffic = Workloads.Traffic

let fail_at = Sim_time.ms 1
let stop_at = Sim_time.ms 4
let rate_gbps = 2.

type variant_result = {
  variant : string;
  failover_latency_ns : float option;
  sent : int;
  received : int;
  lost : int;
  via_backup : int;
}

type result = { event_driven : variant_result; cp_polling : variant_result }

(* A's ports 1 (primary) and 2 (backup) face B's; src host 0 sits on
   A's port 0, dst host 1 on B's. *)
let topo =
  Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)); ((0, 2), (1, 2)) ]
    ~hosts:[ (0, 0); (1, 0) ]

let run_variant ~seed mode_a arch variant =
  let app_a = ref None in
  let program sw (ctx : Evcore.Program.ctx) =
    let mode = if sw = 0 then mode_a ~sched:ctx.sched ~seed else Apps.Fast_reroute.Event_driven in
    let spec, app = Apps.Fast_reroute.program ~mode ~primary:1 ~backup:2 () in
    if sw = 0 then app_a := Some app;
    spec ctx
  in
  let on_shard (ctx : Parsim.shard_ctx) =
    let src = List.assoc 0 ctx.hosts in
    ignore
      (Traffic.cbr ~sched:ctx.sched
         ~flow:
           (Netcore.Flow.make
              ~src:(Netcore.Ipv4_addr.host ~subnet:1 1)
              ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
              ~src_port:7 ~dst_port:7 ())
         ~pkt_bytes:500 ~rate_gbps ~stop:stop_at
         ~send:(fun pkt -> Host.send src pkt)
         ()
        : Traffic.t);
    let primary = List.assoc 0 ctx.links in
    Scheduler.post ctx.sched ~at:fail_at (fun () -> Tmgr.Link.fail primary)
  in
  let r =
    Parsim.run
      (Parsim.config ~until:(stop_at + Sim_time.ms 1)
         ~switch_config:(fun _ -> Event_switch.default_config arch)
         ~program ~on_shard ())
      topo
  in
  let app_a = Option.get !app_a in
  let sent = r.host_sent.(0) and received = r.host_received.(1) in
  {
    variant;
    failover_latency_ns =
      Option.map (fun t -> Sim_time.to_ns (t - fail_at)) (Apps.Fast_reroute.failover_time app_a);
    sent;
    received;
    lost = sent - received;
    via_backup = Apps.Fast_reroute.switched_packets app_a;
  }

let run ?(seed = 42) () =
  let event_mode ~sched:_ ~seed:_ = Apps.Fast_reroute.Event_driven in
  let cp_mode ~sched ~seed =
    let cp = Control_plane.create ~sched ~rng:(Stats.Rng.create ~seed) () in
    Apps.Fast_reroute.Cp_polling { cp; poll_period = Sim_time.ms 1 }
  in
  {
    event_driven = run_variant ~seed event_mode Arch.event_pisa_full "event-driven";
    cp_polling = run_variant ~seed cp_mode Arch.baseline_psa "cp-polling (1ms)";
  }

let print r =
  Report.section "E12 / §3,§5 — fast re-route: packets lost across a link failure";
  Report.kv "scenario"
    (Printf.sprintf "%.0f Gb/s of 500B packets; primary link fails at %s" rate_gbps
       (Report.time_ps fail_at));
  Report.blank ();
  let row v =
    [
      v.variant;
      (match v.failover_latency_ns with None -> "never" | Some l -> Report.ns l);
      string_of_int v.sent;
      string_of_int v.received;
      string_of_int v.lost;
      string_of_int v.via_backup;
    ]
  in
  Report.table
    ~headers:[ "variant"; "failover latency"; "sent"; "received"; "lost"; "via backup" ]
    ~rows:[ row r.event_driven; row r.cp_polling ];
  Report.blank ();
  Report.kv "event-driven loses 10x fewer packets"
    (if r.event_driven.lost * 10 <= r.cp_polling.lost then "PASS" else "FAIL");
  Report.kv "both eventually fail over"
    (if r.event_driven.via_backup > 0 && r.cp_polling.via_backup > 0 then "PASS" else "FAIL")

let name = "frr"
