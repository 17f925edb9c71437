(* Fast re-route: a link-status-change event flips traffic to a backup
   path inside the data plane, a PHY detection delay (10us) after the
   failure — no control plane involved.

   Run with: dune exec examples/fast_failover_demo.exe *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host

let () =
  (* Switch 0's ports 1 (primary) and 2 (backup) face switch 1's; host
     0 sits on switch 0's port 0, host 1 on switch 1's. *)
  let topo =
    Evcore.Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)); ((0, 2), (1, 2)) ]
      ~hosts:[ (0, 0); (1, 0) ]
  in
  let app_a = ref None in
  let program sw ctx =
    let spec, app =
      Apps.Fast_reroute.program ~mode:Apps.Fast_reroute.Event_driven ~primary:1 ~backup:2 ()
    in
    if sw = 0 then app_a := Some app;
    spec ctx
  in
  let on_shard (ctx : Parsim.shard_ctx) =
    ignore
      (Workloads.Traffic.cbr ~sched:ctx.sched
         ~flow:
           (Netcore.Flow.make
              ~src:(Netcore.Ipv4_addr.of_string "10.0.0.1")
              ~dst:(Netcore.Ipv4_addr.of_string "10.0.1.1")
              ~src_port:7 ~dst_port:7 ())
         ~pkt_bytes:500 ~rate_gbps:2. ~stop:(Sim_time.ms 2)
         ~send:(Host.send (List.assoc 0 ctx.hosts))
         ());
    (* Fail the primary link at 1 ms. *)
    let primary = List.assoc 0 ctx.links in
    Scheduler.post ctx.sched ~at:(Sim_time.ms 1) (fun () -> Tmgr.Link.fail primary)
  in
  let r =
    Parsim.run
      (Parsim.config ~until:(Sim_time.ms 2 + Sim_time.us 500)
         ~switch_config:(fun _ -> Event_switch.default_config Evcore.Arch.event_pisa_full)
         ~program ~on_shard ())
      topo
  in
  let app_a = Option.get !app_a in
  let sent = r.host_sent.(0) and delivered = r.host_received.(1) in
  Format.printf "sent %d, delivered %d, lost %d@." sent delivered (sent - delivered);
  (match Apps.Fast_reroute.failover_time app_a with
  | Some t ->
      Format.printf "failover completed %a after the failure@." Sim_time.pp (t - Sim_time.ms 1)
  | None -> Format.printf "no failover?!@.");
  Format.printf "packets re-routed via backup: %d@." (Apps.Fast_reroute.switched_packets app_a)
