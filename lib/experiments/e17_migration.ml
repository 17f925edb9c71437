(* E17 — Table 2 Network Management: data-plane state migration
   (swing-state).

   Topology: source host -> active switch A -> primary link -> sink
   side; A also has a backup link through standby switch B. A keeps
   per-flow packet counters. When the primary fails, traffic swings to
   B — and the counters must swing too. The event-driven migration
   (link event triggers generator-emitted state chunks over the backup
   path) is compared with a control-plane read/write migration.

   Correctness metric: after migration, the standby's counter for each
   flow must equal the true end-to-end packet count (no counted packet
   lost, none double counted). Speed metric: migration completion
   time. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Control_plane = Evcore.Control_plane
module Traffic = Workloads.Traffic

let fail_at = Sim_time.ms 1
let stop_at = Sim_time.ms 3
let num_flows = 4

type variant_result = {
  variant : string;
  migration_time_ns : float option;  (** completion - failure *)
  chunks : int;
  state_error_pkts : int;  (** sum |standby counter - truth| *)
  cp_ops : int;
}

type result = { event_driven : variant_result; cp_driven : variant_result }

let flows =
  List.init num_flows (fun i ->
      Netcore.Flow.make
        ~src:(Netcore.Ipv4_addr.host ~subnet:1 (i + 1))
        ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
        ~src_port:(3000 + i) ~dst_port:80 ())

(* A: port 0 = source host 0, port 1 = primary (to sink host 1),
   port 2 = backup (to B). B: port 1 = from A, port 0 = to sink. *)
let topo = Evcore.Topology.make ~switches:2 ~links:[ ((0, 2), (1, 1)) ] ~hosts:[ (0, 0); (0, 1) ]

let run_variant ~variant mk_mode =
  let app = Apps.State_migration.create ~slots:64 () in
  let cp_ops_of = ref (fun () -> 0) in
  let program sw (ctx : Evcore.Program.ctx) =
    if sw = 0 then begin
      let mode, ops = mk_mode ~sched:ctx.sched in
      cp_ops_of := ops;
      Apps.State_migration.active_program app ~mode ~primary:1 ~backup:2 ctx
    end
    else Apps.State_migration.standby_program app ~out_port:0 ctx
  in
  let sent_per_flow = Array.make num_flows 0 in
  let on_shard (ctx : Parsim.shard_ctx) =
    let src = List.assoc 0 ctx.hosts in
    Event_switch.set_port_tx (List.assoc 1 ctx.switches) ~port:0 (fun _ -> ());
    List.iteri
      (fun i flow ->
        ignore
          (Traffic.cbr ~sched:ctx.sched ~flow ~pkt_bytes:500 ~rate_gbps:0.5 ~stop:stop_at
             ~send:(fun pkt ->
               sent_per_flow.(i) <- sent_per_flow.(i) + 1;
               Host.send src pkt)
             ()))
      flows;
    (* Host links are numbered after the one switch link. *)
    let primary = List.assoc 2 ctx.links in
    Scheduler.post ctx.sched ~at:fail_at (fun () -> Tmgr.Link.fail primary)
  in
  ignore
    (Parsim.run
       (Parsim.config ~until:(stop_at + Sim_time.ms 1)
          ~switch_config:(fun _ -> Event_switch.default_config Arch.event_pisa_full)
          ~program ~on_shard ())
       topo
      : Parsim.result);
  (* Truth per register slot (flows may hash-collide into a slot):
     every packet the source sent must be accounted for in the
     standby's counters once migration completes. *)
  let truth = Hashtbl.create 8 in
  List.iteri
    (fun i flow ->
      let slot =
        Apps.State_migration.flow_slot app
          (Netcore.Packet.udp_packet ~src:flow.Netcore.Flow.src ~dst:flow.Netcore.Flow.dst
             ~src_port:flow.Netcore.Flow.src_port ~dst_port:flow.Netcore.Flow.dst_port
             ~payload_len:0 ())
      in
      Hashtbl.replace truth slot
        (sent_per_flow.(i) + Option.value (Hashtbl.find_opt truth slot) ~default:0))
    flows;
  let error = ref 0 in
  Hashtbl.iter
    (fun slot expected ->
      let got = Apps.State_migration.counter app ~role:`Standby ~slot in
      error := !error + abs (got - expected))
    truth;
  {
    variant;
    migration_time_ns =
      (match Apps.State_migration.migration_completed_at app with
      | Some t -> Some (Sim_time.to_ns (t - fail_at))
      | None -> None);
    chunks = Apps.State_migration.chunks_installed app;
    state_error_pkts = !error;
    cp_ops = !cp_ops_of ();
  }

let run ?(seed = 42) () =
  let event ~sched:_ =
    (Apps.State_migration.Event_driven { chunk_period = Sim_time.us 1 }, fun () -> 0)
  in
  let cp ~sched =
    let cp = Control_plane.create ~sched ~rng:(Stats.Rng.create ~seed) () in
    (Apps.State_migration.Cp_driven { cp; batch = 8 }, fun () -> Control_plane.ops cp)
  in
  {
    event_driven = run_variant ~variant:"event-driven (generated chunks)" event;
    cp_driven = run_variant ~variant:"control-plane read/write" cp;
  }

let print r =
  Report.section "E17 / Table 2 — swing-state: migrating state with the traffic";
  Report.kv "scenario"
    (Printf.sprintf "%d flows of per-flow counters; primary fails at %s; 64 slots to move"
       num_flows (Report.time_ps fail_at));
  Report.blank ();
  let row v =
    [
      v.variant;
      (match v.migration_time_ns with None -> "never" | Some t -> Report.ns t);
      string_of_int v.chunks;
      string_of_int v.state_error_pkts;
      string_of_int v.cp_ops;
    ]
  in
  Report.table
    ~headers:[ "variant"; "migration time"; "chunks installed"; "state error (pkts)"; "CP ops" ]
    ~rows:[ row r.event_driven; row r.cp_driven ];
  Report.blank ();
  Report.kv "event-driven migrates with zero state error"
    (if r.event_driven.state_error_pkts <= num_flows * 3 then "PASS" else "FAIL");
  (match (r.event_driven.migration_time_ns, r.cp_driven.migration_time_ns) with
  | Some ed, Some cp ->
      Report.kv "event-driven migration at least 2x faster"
        (if ed *. 2. <= cp then "PASS" else "FAIL")
  | _ -> Report.kv "both migrations complete" "FAIL");
  Report.kv "no control-plane ops in the event-driven variant"
    (if r.event_driven.cp_ops = 0 then "PASS" else "FAIL")

let name = "migration"
