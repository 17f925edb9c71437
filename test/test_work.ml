(* Exact work counts of three small whole runs: a k=4 fat tree under
   Flowgen at 1 and 2 shards, and one event switch under on-off bursts.
   Each run is built the way perfbench builds its workloads
   (a [Topology.t] run by [Parsim.run], sources installed from
   [on_shard]), only smaller. The counts repeat bit for bit for a seed,
   so they are pinned exactly: a change that adds or drops work, such
   as one more scheduler event per switch crossing, fails here whatever
   the host's speed. A change that moves them on purpose updates the
   numbers below and says why. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Event_merger = Devents.Event_merger
module Packet = Netcore.Packet
module M = Obs.Metrics

let addr_of_host h = Netcore.Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)

let dst_host pkt =
  match pkt.Packet.ip with
  | Some ip -> Netcore.Ipv4_addr.to_int ip.Netcore.Ipv4.dst land 0xffff
  | None -> -1

type counts = {
  callbacks : (string * int) list;  (** [scheduler.callbacks] by class, over all shards *)
  executed : int list;  (** events per shard *)
  rounds : int;
  cross_sent : int;
  piggybacked : int;
  empty_carriers : int;
}

let counts (r : Parsim.result) =
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun reg ->
      List.iter
        (fun (s : M.sample) ->
          match (s.M.name, s.M.value) with
          | "scheduler.callbacks", M.Counter_v n ->
              let cls = List.assoc "class" s.M.labels in
              let prev = Option.value (Hashtbl.find_opt by_class cls) ~default:0 in
              Hashtbl.replace by_class cls (prev + n)
          | _ -> ())
        (M.snapshot reg))
    r.Parsim.registries;
  let switches =
    Array.to_list r.Parsim.ctxs
    |> List.concat_map (fun (c : Parsim.shard_ctx) -> List.map snd c.Parsim.switches)
  in
  let merger_sum f = List.fold_left (fun acc sw -> acc + f (Event_switch.merger sw)) 0 switches in
  {
    callbacks = List.sort compare (List.of_seq (Hashtbl.to_seq by_class));
    executed =
      Array.to_list
        (Array.map (fun (c : Parsim.shard_ctx) -> Scheduler.executed c.Parsim.sched) r.Parsim.ctxs);
    rounds = r.Parsim.rounds_executed;
    cross_sent = r.Parsim.cross_sent;
    piggybacked = merger_sum Event_merger.piggybacked_events;
    empty_carriers = merger_sum Event_merger.empty_carriers;
  }

let check_counts name expected got =
  let pairs = Alcotest.(list (pair string int)) in
  Alcotest.check pairs (name ^ ": scheduler.callbacks by class") expected.callbacks got.callbacks;
  Alcotest.(check (list int)) (name ^ ": executed per shard") expected.executed got.executed;
  Alcotest.(check int) (name ^ ": rounds") expected.rounds got.rounds;
  Alcotest.(check int) (name ^ ": cross_sent") expected.cross_sent got.cross_sent;
  Alcotest.(check int) (name ^ ": piggybacked") expected.piggybacked got.piggybacked;
  Alcotest.(check int) (name ^ ": empty carriers") expected.empty_carriers got.empty_carriers

let seed = 7

(* Per-class counts into the shard's registry; the shard label keeps
   the shards' series apart. *)
let set_metrics (ctx : Parsim.shard_ctx) =
  Scheduler.set_metrics ~wall:false
    ~labels:[ ("shard", string_of_int ctx.Parsim.shard) ]
    ctx.Parsim.sched ctx.Parsim.metrics

(* {1 Fabric: k=4 fat tree, streaming Zipf/Pareto flows} *)

let k = 4
let fabric_hosts = k * k * k / 4
let hosts_per_pod = k * k / 4

let fabric_spec =
  {
    Workloads.Flowgen.num_flows = max_int;
    key_space = 64;
    zipf_alpha = 1.1;
    mean_packets = 3.;
    max_packets = 4;
    pkt_bytes = 256;
    arrival_rate_per_sec = 200_000.;
  }

(* Popular ranks stay in the sender's pod, the tail crosses the core. *)
let fabric_dst ~h rank =
  if rank <= 16 then begin
    let base = h / hosts_per_pod * hosts_per_pod in
    base + ((h - base + 1 + (rank mod (hosts_per_pod - 1))) mod hosts_per_pod)
  end
  else (h + hosts_per_pod + (rank * 7 mod (fabric_hosts - hosts_per_pod))) mod fabric_hosts

let fabric_run ~shards =
  let topo = Topology.fat_tree ~k () in
  let program _ : Program.spec =
   fun _ ->
    Program.make ~name:"fabric-route"
      ~ingress:(fun ctx pkt ->
        let dst = dst_host pkt in
        if dst < 0 then Program.Drop
        else Program.Forward (Topology.fat_tree_route ~k ~sw:ctx.Program.switch_id ~dst_host:dst))
      ()
  in
  let on_shard (ctx : Parsim.shard_ctx) =
    set_metrics ctx;
    List.iter
      (fun (h, host) ->
        let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
        let flow_of_rank rank =
          Netcore.Flow.make ~src:(addr_of_host h)
            ~dst:(addr_of_host (fabric_dst ~h rank))
            ~proto:Netcore.Ipv4.proto_udp
            ~src_port:(1024 + (rank land 0xfff))
            ~dst_port:(5000 + h) ()
        in
        ignore
          (Workloads.Flowgen.install ~sched:ctx.Parsim.sched ~rng ~flow_of_rank
             ~arrival_stop:(Sim_time.us 300) ~rate_pps_per_flow:12_500. fabric_spec
             ~send:(Host.send host) ()
            : Workloads.Flowgen.source_stats))
      ctx.Parsim.hosts
  in
  let switch_config sw =
    {
      (Event_switch.default_config Arch.sume_event_switch) with
      Event_switch.seed = seed + (31 * sw);
    }
  in
  Parsim.run
    (Parsim.config ~shards ~until:(Sim_time.us 400) ~switch_config ~program ~on_shard ())
    topo

(* 4,404 switch crossings: one [merger.admit], [switch.decision] and
   [tm.tx] event each. *)
let test_fabric_1shard () =
  check_counts "fat tree k=4, 1 shard"
    {
      callbacks =
        [
          ("link", 5_853);
          ("merger.admit", 4_404);
          ("switch.decision", 4_404);
          ("tm.tx", 4_404);
          ("workload", 1_452);
        ];
      executed = [ 20_517 ];
      rounds = 1;
      cross_sent = 0;
      piggybacked = 0;
      empty_carriers = 0;
    }
    (counts (fabric_run ~shards:1))

let test_fabric_2shard () =
  check_counts "fat tree k=4, 2 shards"
    {
      (* The same work as at 1 shard: 634 of the 5,853 link arrivals
         cross the cut as [xlink] events. *)
      callbacks =
        [
          ("link", 5_219);
          ("merger.admit", 4_404);
          ("switch.decision", 4_404);
          ("tm.tx", 4_404);
          ("workload", 1_452);
          ("xlink", 634);
        ];
      executed = [ 9_782; 10_735 ];
      rounds = 385;
      cross_sent = 634;
      piggybacked = 0;
      empty_carriers = 0;
    }
    (counts (fabric_run ~shards:2))

(* {1 One switch under on-off bursts}

   The paper's microburst detector on an event_pisa_full switch, a host
   on each of its 8 ports sending 64-B line-rate bursts, and a 1 us
   timer: metadata events ride the merger, piggybacked on packets or in
   empty carriers. *)

let burst_hosts = 8

let bursts_run () =
  let topo =
    {
      Topology.switches = 1;
      hosts = burst_hosts;
      links = [];
      attachments =
        List.init burst_hosts (fun h ->
            { Topology.host = h; switch = 0; port = h; host_delay = Sim_time.us 1 });
    }
  in
  let spec, _detector =
    Apps.Microburst.program ~threshold_bytes:6_000 ~out_port:(fun pkt -> max 0 (dst_host pkt)) ()
  in
  let program _ : Program.spec =
   fun ctx ->
    let p = spec ctx in
    ignore (ctx.Program.add_timer ~period:(Sim_time.us 1) : int);
    { p with Program.timer = Some (fun _ _ -> ()) }
  in
  let on_shard (ctx : Parsim.shard_ctx) =
    set_metrics ctx;
    List.iter
      (fun (h, host) ->
        for f = 0 to 15 do
          let rng = Stats.Rng.create ~seed:(seed + (7919 * h) + (104_729 * f)) in
          let dst = (h + 1 + Stats.Rng.int rng (burst_hosts - 1)) mod burst_hosts in
          let flow =
            Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
              ~proto:Netcore.Ipv4.proto_udp ~src_port:(1024 + f) ~dst_port:(5000 + h) ()
          in
          ignore
            (Workloads.Traffic.on_off ~sched:ctx.Parsim.sched ~rng ~flow ~pkt_bytes:64
               ~burst_rate_gbps:10. ~on_time:(Sim_time.ns 400) ~off_time:(Sim_time.us 12)
               ~start:(Stats.Rng.int rng (Sim_time.us 12))
               ~stop:(Sim_time.us 300) ~exponential_gaps:true ~send:(Host.send host) ()
              : Workloads.Traffic.t)
        done)
      ctx.Parsim.hosts
  in
  let switch_config sw =
    { (Event_switch.default_config Arch.event_pisa_full) with Event_switch.seed = seed + (31 * sw) }
  in
  Parsim.run (Parsim.config ~until:(Sim_time.us 360) ~switch_config ~program ~on_shard ()) topo

let test_bursts () =
  check_counts "one switch, on-off bursts"
    {
      callbacks =
        [
          ("link", 53_458);
          ("merger.admit", 52_493);
          ("switch.decision", 26_729);
          ("timer", 360);
          ("tm.tx", 26_729);
          ("workload", 30_014);
        ];
      executed = [ 189_783 ];
      rounds = 1;
      cross_sent = 0;
      piggybacked = 20_132;
      empty_carriers = 25_764;
    }
    (counts (bursts_run ()))

let suite =
  [
    Alcotest.test_case "fat tree k=4, 1 shard: exact work counts" `Quick test_fabric_1shard;
    Alcotest.test_case "fat tree k=4, 2 shards: exact work counts" `Quick test_fabric_2shard;
    Alcotest.test_case "one switch under bursts: exact work counts" `Quick test_bursts;
  ]
