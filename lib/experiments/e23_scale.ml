(* E23 — scale: sharded parallel execution of a k=4 fat tree.

   The paper's §4 asks how event-driven data-plane state behaves when
   the "switch" is no longer one sequential machine. This experiment
   runs the same declarative fat-tree forwarding workload under the
   sequential backend and under [Parsim]'s conservatively-synchronized
   shards, then checks the tentpole guarantee: the merged per-entity
   arrival trace and the merged per-switch metrics of an N-shard run
   are byte-identical to the 1-shard (true sequential) run of the same
   seed. Alongside the conformance check it records the throughput
   curve (events per wall-second at each shard count), and a chaos
   variant subjects intra-shard links to seeded faults through
   per-shard fault engines while checking packet conservation. *)

module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Traffic = Workloads.Traffic

let name = "scale"
let k = 4
let num_hosts = k * k * k / 4
let topo () = Topology.fat_tree ~k ()

(* Host h owns 10.0.(h lsr 8).(h land 0xff); the low 16 address bits
   recover the host id, which drives deterministic fat-tree routing. *)
let addr_of_host h = Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)
let host_of_addr a = Ipv4_addr.to_int a land 0xffff

let routing_program : Program.spec =
 fun _install_ctx ->
  Program.make ~name:"ft-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.fat_tree_route ~k ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

let switch_config ~seed sw =
  let cfg = Event_switch.default_config Arch.sume_event_switch in
  { cfg with Event_switch.seed = seed + (31 * sw) }

(* Every host streams CBR at host (h+5) mod 16 — crossing pods for
   most pairs, so core links (cross-shard under partitioning) carry
   real load. Traffic stops well before [until] so queues and links
   drain and conservation is exact at the cut-off. Each flow carries a
   small send jitter from its own per-host RNG: the seed visibly
   shapes the trace (the golden files for different seeds differ)
   while staying independent of how flows are spread over shards. *)
let install_traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 100 in
  if stop <= 0 then invalid_arg "E23: until must exceed the 100 us drain margin";
  List.iter
    (fun (h, host) ->
      let dst = (h + 5) mod num_hosts in
      let flow =
        Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
          ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
      in
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      ignore
        (Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps:2. ~stop
           ~jitter:(rng, Sim_time.ns 40)
           ~send:(Host.send host) ()
          : Traffic.t))
    ctx.Parsim.hosts

let scenario ?(shards = 1) ?(record_trace = true) ?on_shard ~seed ~until () =
  Parsim.config ~shards ~record_trace ~until
    ~switch_config:(switch_config ~seed)
    ~program:(fun _ -> routing_program)
    ~on_shard:(fun ctx ->
      install_traffic ~seed ~until ctx;
      match on_shard with None -> () | Some f -> f ctx)
    ()

(* The golden-trace suite runs this exact scenario — short enough that
   its canonical traces stay reviewable in-repo, long enough (> the
   100 us drain margin) that traffic flows. One definition shared by
   the generator and the conformance test so they cannot drift. *)
let golden_until = Sim_time.us 150

let golden_scenario ?(shards = 1) ~seed () =
  scenario ~shards ~record_trace:true ~seed ~until:golden_until ()

(* test/golden/e23_seedN.digest pins the trace and merged-metrics MD5s
   of the golden scenario — same fixture shape as E24-E26. *)
let golden =
  {
    Conformance.name = "e23";
    seeds = [ 42; 7 ];
    (* Uneven cuts (3, 5, 6, 7) beside the powers of two. *)
    shards = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    topo;
    legs = (fun ~shards ~seed -> [ (None, golden_scenario ~shards ~seed ()) ]);
  }

(* ------------------------------------------------------------------ *)
(* Forwarding conformance + throughput                                 *)

type result = {
  seed : int;
  until : Sim_time.t;
  runs : unit Conformance.run list;
  all_conformant : bool;
}

let run ?metrics ?(seed = 42) ?shard_counts ?(until = Sim_time.ms 1) () =
  let runs =
    Conformance.sweep ?shard_counts (topo ()) (fun ~shards ->
        (scenario ~shards ~seed ~until (), ()))
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      List.iter
        (fun (v : unit Conformance.run) ->
          let labels = [ ("shards", string_of_int v.shards) ] in
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e23.events") v.result.events;
          Obs.Metrics.Counter.set
            (Obs.Metrics.counter reg ~labels "e23.cross_messages")
            v.result.cross_sent)
        runs);
  { seed; until; runs; all_conformant = Conformance.all_conformant runs }

let print r =
  Report.section "E23 / Sec 4 — sharded parallel execution of a k=4 fat tree";
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.until);
  Report.blank ();
  Report.table
    ~headers:
      [ "shards"; "rounds"; "events"; "cross msgs"; "rx"; "wall ms"; "kev/s"; "trace"; "conform" ]
    ~rows:
      (List.map
         (fun (v : unit Conformance.run) ->
           let p = v.result in
           [
             string_of_int v.shards;
             string_of_int p.rounds_executed;
             string_of_int p.events;
             string_of_int p.cross_sent;
             string_of_int (Array.fold_left ( + ) 0 p.host_received);
             Printf.sprintf "%.1f" (p.wall_s *. 1e3);
             Printf.sprintf "%.0f" (float_of_int p.events /. p.wall_s /. 1e3);
             Conformance.short "trace" v;
             (if v.conformant then "ok" else "DIVERGED");
           ])
         r.runs);
  Report.blank ();
  Report.kv "merged trace and metrics identical across shard counts"
    (if r.all_conformant then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Sharded chaos: per-shard fault engines on intra-shard links         *)

type chaos_result = {
  c_shards : int;
  c_seed : int;
  sent : int;
  received : int;
  duplicated : int;
  link_lost : int;
  switch_dropped : int;
  cross_lost : int;
  balance : int;
  injected : int;
  conserved : bool;
  flowing : bool;
  faults_fired : bool;
}

(* Cross-shard links cannot be failed or perturbed (a status change
   cannot honour the lookahead contract), so chaos is confined to the
   intra-shard links each shard's engine owns — exactly the
   "injection targets owning shard" routing the partition dictates. *)
let chaos ?(shards = 2) ?(seed = 7) ?(until = Sim_time.ms 1) () =
  let topo = topo () in
  let fault_stop = until - Sim_time.us 100 in
  let engines = ref [] in
  let cfg =
    scenario ~shards ~record_trace:false ~seed ~until
      ~on_shard:(fun ctx ->
        let eng =
          Faults.Engine.create ~sched:ctx.Parsim.sched ~seed:(seed + (101 * ctx.Parsim.shard))
            ~stop:fault_stop ()
        in
        let perturb =
          Faults.Perturb.lossy ~drop_p:0.02 ~dup_p:0.01 ~delay_p:0.03
            ~max_extra_delay:(Sim_time.us 20) ()
        in
        List.iter
          (fun (lid, link) ->
            Faults.Engine.add_perturbation eng
              ~name:(Printf.sprintf "perturb.s%d" ctx.Parsim.shard)
              ~config:perturb link;
            if lid mod 5 = 0 then
              Faults.Engine.add_link_flaps eng
                ~name:(Printf.sprintf "flap.s%d" ctx.Parsim.shard)
                ~plan:
                  (Faults.Schedule.Poisson { start = Sim_time.us 200; rate_per_sec = 2000. })
                ~down_for:(Sim_time.us 30) link)
          ctx.Parsim.links;
        Faults.Engine.export_metrics eng ctx.Parsim.metrics;
        engines := (ctx.Parsim.shard, eng) :: !engines)
      ()
  in
  let r = Parsim.run cfg topo in
  let sent = Array.fold_left ( + ) 0 r.host_sent in
  let received = Array.fold_left ( + ) 0 r.host_received in
  let links = Array.to_list r.ctxs |> List.concat_map (fun c -> c.Parsim.links) in
  let duplicated = List.fold_left (fun acc (_, l) -> acc + Tmgr.Link.perturb_dups l) 0 links in
  let link_lost = List.fold_left (fun acc (_, l) -> acc + Tmgr.Link.lost l) 0 links in
  let switch_dropped =
    Array.to_list r.ctxs
    |> List.concat_map (fun c -> c.Parsim.switches)
    |> List.fold_left (fun acc (_, sw) -> acc + Event_switch.packets_dropped sw) 0
  in
  let cross_lost = r.cross_sent - r.cross_delivered in
  (* Cross-link packets stay inside the switch-to-switch balance (sent
     by one switch's TM, received by another's ingress); only the ones
     [until] cut off in flight leave the books, counted as
     [cross_lost]. *)
  let balance = sent + duplicated - received - link_lost - switch_dropped - cross_lost in
  let injected =
    List.fold_left (fun acc (_, e) -> acc + Faults.Engine.total_injected e) 0 !engines
  in
  {
    c_shards = shards;
    c_seed = seed;
    sent;
    received;
    duplicated;
    link_lost;
    switch_dropped;
    cross_lost;
    balance;
    injected;
    conserved = balance = 0;
    flowing = received > 0 && received * 4 > sent;
    faults_fired = injected > 0;
  }

let chaos_passed c = c.conserved && c.flowing && c.faults_fired

let print_chaos c =
  Report.section "E23 chaos — sharded fault injection (intra-shard links)";
  Report.kv "shards" (string_of_int c.c_shards);
  Report.kv "seed" (string_of_int c.c_seed);
  Report.blank ();
  Report.table
    ~headers:[ "sent"; "dup"; "rx"; "link lost"; "sw dropped"; "cross cut"; "balance" ]
    ~rows:
      [
        [
          string_of_int c.sent;
          string_of_int c.duplicated;
          string_of_int c.received;
          string_of_int c.link_lost;
          string_of_int c.switch_dropped;
          string_of_int c.cross_lost;
          string_of_int c.balance;
        ];
      ];
  Report.blank ();
  Report.kv "fault actions injected" (string_of_int c.injected);
  Report.kv "packet conservation" (if c.conserved then "PASS" else "FAIL");
  Report.kv "traffic kept flowing" (if c.flowing then "PASS" else "FAIL");
  Report.kv "faults demonstrably fired" (if c.faults_fired then "PASS" else "FAIL")
