(* Sharded parallel simulation: partitioning, horizon algebra, windowed
   draining, and sequential-vs-sharded conformance on a small ring. The
   full-size fat-tree conformance lives in the golden suite and E23. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Horizon = Parsim.Horizon

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)

(* The documented switch weight: 1 + wired ports + 4 per attached
   host. *)
let weights (topo : Topology.t) =
  let w = Array.make topo.Topology.switches 1 in
  List.iter
    (fun (l : Topology.link) ->
      w.(fst l.a) <- w.(fst l.a) + 1;
      w.(fst l.b) <- w.(fst l.b) + 1)
    topo.Topology.links;
  List.iter
    (fun (at : Topology.attachment) -> w.(at.switch) <- w.(at.switch) + 4)
    topo.Topology.attachments;
  w

let test_partition_exactly_once () =
  let topo = Topology.fat_tree ~k:4 () in
  List.iter
    (fun shards ->
      let p = Parsim.partition topo ~shards in
      Alcotest.(check int) "switch array sized" topo.Topology.switches
        (Array.length p.Parsim.shard_of_switch);
      let counts = Array.make shards 0 in
      Array.iter
        (fun s ->
          Alcotest.(check bool) "shard id in range" true (s >= 0 && s < shards);
          counts.(s) <- counts.(s) + 1)
        p.Parsim.shard_of_switch;
      (* Every switch lands in exactly one shard (it has exactly one
         array slot), every shard is populated, and weights balance to
         within one switch's worth: a boundary moved by one switch
         cannot improve the heaviest shard. *)
      let mn = Array.fold_left min max_int counts in
      Alcotest.(check bool) "no empty shard" true (mn >= 1);
      let weights = weights topo in
      let wmax = Array.fold_left max 0 weights in
      let wmn = Array.fold_left min max_int p.Parsim.shard_weight
      and wmx = Array.fold_left max 0 p.Parsim.shard_weight in
      Alcotest.(check bool) "weight-balanced" true (wmx - wmn <= 2 * wmax);
      let wtotal = Array.fold_left ( + ) 0 weights in
      Alcotest.(check int) "weights conserved" wtotal
        (Array.fold_left ( + ) 0 p.Parsim.shard_weight);
      (* Contiguous blocks: assignments never decrease with switch id. *)
      Array.iteri
        (fun i s ->
          if i > 0 then
            Alcotest.(check bool) "contiguous blocks" true
              (s >= p.Parsim.shard_of_switch.(i - 1)))
        p.Parsim.shard_of_switch;
      (* A host lives with its edge switch. *)
      List.iter
        (fun (at : Topology.attachment) ->
          Alcotest.(check int) "host co-located" p.Parsim.shard_of_switch.(at.switch)
            p.Parsim.shard_of_host.(at.host))
        topo.Topology.attachments)
    [ 1; 2; 3; 4; 5; 20 ]

let test_partition_bad_counts () =
  let topo = Topology.ring ~switches:4 () in
  List.iter
    (fun shards ->
      match Parsim.partition topo ~shards with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "partition accepted %d shards for 4 switches" shards)
    [ 0; -1; 5 ];
  (* [Parsim.run] rejects an [until] its horizon arithmetic cannot
     represent, at every shard count. *)
  List.iter
    (fun (shards, until) ->
      let cfg =
        Parsim.config ~shards ~until
          ~switch_config:(fun _ -> Event_switch.default_config Arch.sume_event_switch)
          ~program:(fun _ -> Fixtures.forward_all ~out_port:1)
          ()
      in
      match Parsim.run cfg topo with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "run accepted until %d at %d shards" until shards)
    [ (1, -1); (2, -1); (1, Parsim.Horizon.no_event); (1, max_int); (2, max_int) ]

let test_plan_link_coverage () =
  let topo = Topology.ring ~switches:6 () in
  let pl = Parsim.plan topo ~shards:3 in
  let part = pl.Parsim.part in
  let seen = Hashtbl.create 16 in
  let claim lid =
    if Hashtbl.mem seen lid then Alcotest.failf "link %d planned twice" lid;
    Hashtbl.add seen lid ()
  in
  List.iter
    (fun (owner, (l : Topology.link)) ->
      claim l.link_id;
      let sa = part.Parsim.shard_of_switch.(fst l.a)
      and sb = part.Parsim.shard_of_switch.(fst l.b) in
      Alcotest.(check int) "local link endpoints co-sharded" sa sb;
      Alcotest.(check int) "local link owner" sa owner)
    pl.Parsim.local_links;
  List.iter
    (fun (c : Parsim.cross_link) ->
      claim c.link.link_id;
      Alcotest.(check int) "shard_a recorded" part.Parsim.shard_of_switch.(fst c.link.a)
        c.shard_a;
      Alcotest.(check int) "shard_b recorded" part.Parsim.shard_of_switch.(fst c.link.b)
        c.shard_b;
      Alcotest.(check bool) "cross link spans shards" true (c.shard_a <> c.shard_b);
      (* Links are bidirectional: each cross link constrains the
         horizon in both directions. *)
      List.iter
        (fun (src, dst) ->
          Alcotest.(check bool) "pair delay exists for direction" true
            (List.exists (fun (s, d, _) -> s = src && d = dst) pl.Parsim.pair_delays))
        [ (c.shard_a, c.shard_b); (c.shard_b, c.shard_a) ])
    pl.Parsim.cross;
  Alcotest.(check int) "every link planned exactly once"
    (List.length topo.Topology.links)
    (Hashtbl.length seen);
  Alcotest.(check bool) "ring cut produces cross links" true (pl.Parsim.cross <> []);
  (* One pair delay per directed shard pair. *)
  let pairs = List.map (fun (s, d, _) -> (s, d)) pl.Parsim.pair_delays in
  Alcotest.(check int) "pairs distinct" (List.length pairs)
    (List.length (List.sort_uniq compare pairs));
  (* The horizon's per-pair delays bottom out at the minimum cross-link
     delay — the safety bound: no cross link is faster. *)
  let min_cross =
    List.fold_left (fun acc (c : Parsim.cross_link) -> min acc c.link.delay) max_int
      pl.Parsim.cross
  in
  Alcotest.(check int) "min pair delay = min cross delay" min_cross
    (List.fold_left (fun acc (_, _, d) -> min acc d) max_int pl.Parsim.pair_delays)

let test_plan_pair_delays () =
  (* Per directed shard pair joined by a cross link, the fastest such
     link's delay; a local link, however fast, constrains nothing, and
     shards no cross link joins get no entry. Shards: {0,1} {2,3} {4,5}. *)
  let link link_id a b delay = { Topology.link_id; a; b; delay; detection_delay = None } in
  let topo =
    {
      Topology.switches = 6;
      hosts = 0;
      links =
        [
          link 0 (0, 0) (1, 0) (Sim_time.ns 500);
          link 1 (1, 1) (2, 0) (Sim_time.us 2);
          link 2 (0, 1) (2, 1) (Sim_time.us 1);
          link 3 (2, 2) (3, 0) (Sim_time.ns 100);
          link 4 (3, 1) (4, 0) (Sim_time.us 4);
          link 5 (4, 1) (5, 0) (Sim_time.us 1);
        ];
      attachments = [];
    }
  in
  (* Switch weights 3 3 4 3 3 2. *)
  let pl = Parsim.plan topo ~shards:3 in
  Alcotest.(check (array int)) "shards" [| 0; 0; 1; 1; 2; 2 |] pl.Parsim.part.shard_of_switch;
  Alcotest.(check (list (triple int int int)))
    "fastest cross link per direction"
    [
      (0, 1, Sim_time.us 1);
      (1, 0, Sim_time.us 1);
      (1, 2, Sim_time.us 4);
      (2, 1, Sim_time.us 4);
    ]
    pl.Parsim.pair_delays

let test_plan_single_shard () =
  let topo = Topology.ring ~switches:4 () in
  let pl = Parsim.plan topo ~shards:1 in
  Alcotest.(check int) "no cross links" 0 (List.length pl.Parsim.cross);
  Alcotest.(check int) "all links local" (List.length topo.Topology.links)
    (List.length pl.Parsim.local_links);
  (* With nothing crossing, no shard pair constrains the horizon. *)
  Alcotest.(check int) "no pair delays" 0 (List.length pl.Parsim.pair_delays)

(* ------------------------------------------------------------------ *)
(* Horizon algebra                                                     *)

(* ------------------------------------------------------------------ *)
(* Adaptive horizon                                                    *)

let test_adaptive_bound () =
  (* Two shards 5 apart: the bound tracks the earliest next event plus
     the cheapest outgoing edge, not a fixed-width window. *)
  Alcotest.(check int) "bound follows earliest + delay" 105
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |] ~next_events:[| 100; 250 |]
       ~until:10_000);
  (* A quiescent shard publishes no_event and stops constraining. *)
  Alcotest.(check int) "quiescent shard ignored" 255
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |]
       ~next_events:[| Horizon.no_event; 250 |] ~until:10_000);
  (* Everyone quiescent: one final window closes the run. *)
  Alcotest.(check int) "all quiescent -> until + 1" 10_001
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |]
       ~next_events:[| Horizon.no_event; Horizon.no_event |] ~until:10_000);
  (* No cross links at all (min_out = no_event sentinel). *)
  Alcotest.(check int) "no edges -> until + 1" 10_001
    (Horizon.adaptive_bound ~min_out_delays:[| Horizon.no_event; Horizon.no_event |]
       ~next_events:[| 3; 4 |] ~until:10_000);
  (* Clamped to until + 1 from above. *)
  Alcotest.(check int) "clamped to until+1" 101
    (Horizon.adaptive_bound ~min_out_delays:[| 50 |] ~next_events:[| 90 |] ~until:100);
  match
    Horizon.adaptive_bound ~min_out_delays:[| 1 |] ~next_events:[| 1; 2 |] ~until:10
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* The adaptive bound stays inside the safety envelope: with every next
   event at or after the fleet clock [cur], the bound still satisfies
   the conservative contract — nothing any shard can send lands before
   it — and it advances at least one fixed window of the minimum delay
   past [cur] (every round progresses). *)
let qcheck_adaptive_safety =
  QCheck.Test.make ~count:300 ~name:"adaptive bound stays in the safety envelope"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (pair (int_range 0 5_000) (int_range 1 1_000)))
        (int_range 0 50_000))
    (fun (shard_specs, cur) ->
      let next_events =
        Array.of_list (List.map (fun (off, _) -> cur + off) shard_specs)
      in
      let min_out = Array.of_list (List.map snd shard_specs) in
      let until = cur + 100_000 in
      let bound = Horizon.adaptive_bound ~min_out_delays:min_out ~next_events ~until in
      (* Safety: no shard j can deliver before next_events.(j) +
         min_out.(j); the bound is the min of exactly those reaches. *)
      let safe_envelope = ref (until + 1) in
      Array.iteri
        (fun j d -> safe_envelope := min !safe_envelope (next_events.(j) + d))
        min_out;
      bound <= !safe_envelope
      (* Progress: a fixed window would end at cur + min delay; the
         adaptive bound reaches at least that (next events are at or
         after cur). *)
      && bound > cur
      &&
      let window_end = min (cur + Array.fold_left min max_int min_out) (until + 1) in
      bound >= window_end)

(* ------------------------------------------------------------------ *)
(* Weighted partitioning                                               *)

(* A ring of [Array.length hosts] switches, [hosts.(i)] of them on
   switch [i]: each host adds 4 to its switch's weight. *)
let ring_with_hosts hosts =
  let n = Array.length hosts in
  Topology.make ~switches:n
    ~links:(List.init n (fun i -> ((i, 1), ((i + 1) mod n, 2))))
    ~hosts:(List.concat (List.init n (fun sw -> List.init hosts.(sw) (fun j -> (sw, 3 + j)))))

let shard_counts p ~shards =
  let counts = Array.make shards 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) p.Parsim.shard_of_switch;
  counts

(* Regression: skewed weights must never produce an empty shard — the
   boundary clamp degrades toward the equal-count split instead. *)
let test_partition_skewed_weights () =
  let cases =
    [
      ([| 250; 0; 0; 0; 0; 0; 0; 0 |], 3);
      ([| 0; 0; 0; 0; 0; 0; 0; 250 |], 4);
      ([| 0; 0; 0; 0; 0; 0; 0; 0 |], 5);
      ([| 250; 250; 0; 0; 0; 0; 250; 250 |], 8);
    ]
  in
  List.iter
    (fun (hosts, shards) ->
      let p = Parsim.partition (ring_with_hosts hosts) ~shards in
      Array.iteri
        (fun s c ->
          if c = 0 then
            Alcotest.failf "shard %d empty for hosts=%s shards=%d" s
              (String.concat ";" (Array.to_list (Array.map string_of_int hosts)))
              shards)
        (shard_counts p ~shards))
    cases

let qcheck_partition_never_empty =
  QCheck.Test.make ~count:200 ~name:"weighted partition never yields an empty shard"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 24) (int_range 0 250))
        (int_range 1 24))
    (fun (hosts, shards) ->
      QCheck.assume (shards <= List.length hosts);
      let p = Parsim.partition (ring_with_hosts (Array.of_list hosts)) ~shards in
      Array.for_all (fun c -> c >= 1) (shard_counts p ~shards)
      && Array.for_all (fun w -> w >= 0) p.Parsim.shard_weight)

(* ------------------------------------------------------------------ *)
(* Windowed draining (the scheduler hook the engine relies on)         *)

let test_drain_until_horizon () =
  let sched = Scheduler.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Scheduler.post sched ~at:t (fun () -> fired := t :: !fired))
    [ 5; 10; 15 ];
  Scheduler.drain_until_horizon sched ~horizon:10;
  (* Strictly-before semantics: the event at the horizon stays queued. *)
  Alcotest.(check (list int)) "only t<10 ran" [ 5 ] (List.rev !fired);
  Alcotest.(check int) "clock parked at horizon" 10 (Scheduler.now sched);
  Alcotest.(check int) "rest still queued" 2 (Scheduler.pending sched);
  (* Draining to the same horizon again is a no-op, and work may still
     be scheduled at the horizon itself — the cross-shard injection
     pattern. *)
  Scheduler.drain_until_horizon sched ~horizon:10;
  Scheduler.post sched ~at:10 (fun () -> fired := 99 :: !fired);
  Scheduler.drain_until_horizon sched ~horizon:16;
  (* Ties run in schedule order: the event queued before the drain
     precedes the one posted at the barrier. *)
  Alcotest.(check (list int)) "horizon event ran next window" [ 5; 10; 99; 15 ]
    (List.rev !fired);
  Alcotest.(check int) "clock at new horizon" 16 (Scheduler.now sched);
  match Scheduler.drain_until_horizon sched ~horizon:12 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "horizon before now accepted"

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_topology_validate () =
  let link link_id a b : Topology.link =
    { Topology.link_id; a; b; delay = Sim_time.us 1; detection_delay = None }
  in
  let attach host (switch, port) : Topology.attachment =
    { Topology.host; switch; port; host_delay = Sim_time.us 1 }
  in
  List.iter
    (fun (what, topo) ->
      match Topology.validate topo with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s accepted" what)
    [
      ( "duplicate (switch, port)",
        {
          Topology.switches = 2;
          hosts = 0;
          links = [ link 0 (0, 1) (1, 1); link 1 (0, 1) (1, 2) ];
          attachments = [];
        } );
      ( "out-of-range switch id",
        { Topology.switches = 2; hosts = 0; links = [ link 0 (0, 1) (2, 1) ]; attachments = [] } );
      ( "host on a link's port",
        Topology.make ~switches:2 ~links:[ ((0, 1), (1, 1)) ] ~hosts:[ (1, 1) ] );
      ( "host attached twice",
        {
          Topology.switches = 1;
          hosts = 1;
          links = [];
          attachments = [ attach 0 (0, 0); attach 0 (0, 1) ];
        } );
    ];
  (* The builders themselves must pass their own validator. *)
  Topology.validate (Topology.ring ~switches:5 ());
  Topology.validate (Topology.fat_tree ~k:4 ())

(* Port-claim collisions only show at scale: k=16 wires 320 switches /
   2048 links, k=32 wires 1280 / 16384, and the 1024-switch ring
   stresses the skewed-delay accumulation. The validator hashes every
   (switch, port) claim, so a builder bug anywhere in the lattice
   raises. Also pins sizes so a builder regression is loud, and checks
   [Topology.ports] agrees with [max_port], a per-switch scan. *)

(* Highest port a switch uses ([-1] if none), one scan per switch. *)
let max_port (topo : Topology.t) sw =
  let fold_ep acc (s, p) = if s = sw then max acc p else acc in
  let acc =
    List.fold_left (fun acc (l : Topology.link) -> fold_ep (fold_ep acc l.a) l.b) (-1) topo.links
  in
  List.fold_left (fun acc (at : Topology.attachment) -> fold_ep acc (at.switch, at.port)) acc
    topo.attachments
let test_topology_make () =
  (* Link i joins the ith endpoint pair and host h sits on the hth
     endpoint; every link, host links included, is 1 us with the link
     layer's default detection. *)
  let topo =
    Topology.make ~switches:3 ~links:[ ((0, 1), (1, 2)); ((2, 0), (1, 1)) ] ~hosts:[ (2, 3); (0, 0) ]
  in
  Topology.validate topo;
  Alcotest.(check (list (pair int (pair (pair int int) (pair int int)))))
    "links in list order"
    [ (0, ((0, 1), (1, 2))); (1, ((2, 0), (1, 1))) ]
    (List.map (fun (l : Topology.link) -> (l.link_id, (l.a, l.b))) topo.links);
  List.iter
    (fun (l : Topology.link) ->
      Alcotest.(check int) "link delay" (Sim_time.us 1) l.delay;
      Alcotest.(check (option int)) "default detection" None l.detection_delay)
    topo.links;
  Alcotest.(check int) "host count" 2 topo.hosts;
  Alcotest.(check (list (triple int int int)))
    "hosts in list order"
    [ (0, 2, 3); (1, 0, 0) ]
    (List.map (fun (at : Topology.attachment) -> (at.host, at.switch, at.port)) topo.attachments);
  List.iter
    (fun (at : Topology.attachment) ->
      Alcotest.(check int) "host link delay" (Sim_time.us 1) at.host_delay)
    topo.attachments;
  Alcotest.(check (array int)) "ports" [| 2; 3; 4 |] (Topology.ports topo)

let test_topology_validate_at_scale () =
  let check ~switches ~hosts ~links topo =
    Topology.validate topo;
    Alcotest.(check int) "switches" switches topo.Topology.switches;
    Alcotest.(check int) "hosts" hosts topo.Topology.hosts;
    Alcotest.(check int) "links" links (List.length topo.Topology.links);
    let ports = Topology.ports topo in
    List.iter
      (fun sw ->
        Alcotest.(check int) "ports agrees with max_port"
          (max_port topo sw + 1)
          ports.(sw))
      [ 0; switches / 2; switches - 1 ]
  in
  (* k-ary fat tree: (k/2)^2 cores + k^2 switches in pods, k^3/4 hosts,
     core-agg k^3/4 + agg-edge k^3/4 links. *)
  check ~switches:320 ~hosts:1024 ~links:2048 (Topology.fat_tree ~k:16 ());
  check ~switches:1280 ~hosts:8192 ~links:16384 (Topology.fat_tree ~k:32 ());
  check ~switches:1024 ~hosts:1024 ~links:1024 (Topology.ring ~switches:1024 ());
  (* Leaf-spine: a leaf's hosts then one uplink per spine; a spine's
     port per leaf. *)
  let ls = Topology.leaf_spine ~leaves:5 ~spines:3 ~hosts_per_leaf:4 in
  check ~switches:8 ~hosts:20 ~links:15 ls;
  Alcotest.(check (array int)) "leaf-spine ports" [| 7; 7; 7; 7; 7; 5; 5; 5 |] (Topology.ports ls)

(* Follow the deterministic routing function through the topology graph
   and confirm every (source, destination) pair reaches the destination
   host in a bounded number of hops. *)
let check_routing_reaches (topo : Topology.t) ~route ~max_hops =
  let port_map = Hashtbl.create 64 in
  List.iter
    (fun (l : Topology.link) ->
      Hashtbl.replace port_map l.a (`Switch l.b);
      Hashtbl.replace port_map l.b (`Switch l.a))
    topo.links;
  List.iter
    (fun (at : Topology.attachment) ->
      Hashtbl.replace port_map (at.switch, at.port) (`Host at.host))
    topo.attachments;
  List.iter
    (fun (src : Topology.attachment) ->
      for dst = 0 to topo.hosts - 1 do
        let sw = ref src.switch and hops = ref 0 and arrived = ref false in
        while not !arrived do
          incr hops;
          if !hops > max_hops then
            Alcotest.failf "host %d -> %d: no arrival after %d hops" src.host dst max_hops;
          let port = route ~sw:!sw ~dst_host:dst in
          match Hashtbl.find_opt port_map (!sw, port) with
          | Some (`Host h) ->
              Alcotest.(check int) "routed to the right host" dst h;
              arrived := true
          | Some (`Switch (sw', _)) -> sw := sw'
          | None -> Alcotest.failf "switch %d port %d is unwired" !sw port
        done
      done)
    topo.attachments

let test_fat_tree_route_reaches () =
  check_routing_reaches (Topology.fat_tree ~k:4 ()) ~route:(Topology.fat_tree_route ~k:4)
    ~max_hops:5

(* Routing a packet builds nothing, not even the destination's
   (pod, edge, member) tuple. *)
let test_fat_tree_route_zero_alloc () =
  let i = ref 0 and sum = ref 0 in
  Zero_alloc.check "Topology.fat_tree_route" ~iters:10_000 (fun () ->
      sum := !sum + Topology.fat_tree_route ~k:4 ~sw:(!i mod 20) ~dst_host:(!i mod 16);
      incr i);
  Alcotest.(check bool) "routes to real ports" true (!sum > 0)

let test_ring_route_reaches () =
  check_routing_reaches
    (Topology.ring ~switches:5 ())
    ~route:(Topology.ring_route ~switches:5)
    ~max_hops:5

(* ------------------------------------------------------------------ *)
(* End-to-end conformance on a ring                                    *)

let addr_of_host h = Ipv4_addr.of_octets 10 0 0 h
let host_of_addr a = Ipv4_addr.to_int a land 0xff

let ring_program ~switches : Program.spec =
 fun _ ->
  Program.make ~name:"ring-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.ring_route ~switches ~sw:ctx.Program.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

let ring_config ~shards ~switches ~until () =
  Parsim.config ~shards ~record_trace:true ~until
    ~switch_config:(fun sw ->
      let cfg = Event_switch.default_config Arch.sume_event_switch in
      { cfg with Event_switch.seed = 42 + (31 * sw) })
    ~program:(fun _ -> ring_program ~switches)
    ~on_shard:(fun ctx ->
      List.iter
        (fun (h, host) ->
          let dst = (h + 1) mod switches in
          let flow =
            Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
              ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
          in
          ignore
            (Workloads.Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256
               ~rate_gbps:1. ~stop:(until - Sim_time.us 100)
               ~send:(Host.send host) ()
              : Workloads.Traffic.t))
        ctx.Parsim.hosts)
    ()

(* A 4-switch [Topology.ring] whose link [i] takes [delay + i * skew]
   (by default 1 us and 1 ps, the ring's own delays). *)
let run_ring ?(skew = Sim_time.ps 1) ?(delay = Sim_time.us 1) ~shards () =
  let switches = 4 and until = Sim_time.us 250 in
  let ring = Topology.ring ~switches () in
  let topo =
    {
      ring with
      Topology.links =
        List.map
          (fun (l : Topology.link) -> { l with delay = delay + (l.link_id * skew) })
          ring.Topology.links;
    }
  in
  Parsim.run (ring_config ~shards ~switches ~until ()) topo

let check_same_run (seq : Parsim.result) (par : Parsim.result) =
  Alcotest.(check (list string)) "merged traces identical" seq.Parsim.trace par.Parsim.trace;
  Alcotest.(check string) "merged metrics identical" seq.Parsim.metrics_json
    par.Parsim.metrics_json;
  Alcotest.(check (array int)) "per-host receive counts" seq.Parsim.host_received
    par.Parsim.host_received;
  Alcotest.(check (array int)) "per-host sent counts" seq.Parsim.host_sent
    par.Parsim.host_sent

let test_ring_conformance () =
  let seq = run_ring ~shards:1 () in
  Alcotest.(check bool) "traffic flowed" true
    (Array.fold_left ( + ) 0 seq.Parsim.host_received > 0);
  Alcotest.(check bool) "trace recorded" true (seq.Parsim.trace <> []);
  List.iter
    (fun shards ->
      let par = run_ring ~shards () in
      Alcotest.(check bool) "cross-shard messages flowed" true (par.Parsim.cross_sent > 0);
      check_same_run seq par)
    [ 2; 4 ]

let test_ring_wide_windows () =
  (* A 100 us link delay makes every window 100 us wide, so one window
     carries dozens of messages per direction and a mailbox grows past
     its first 16 slots (at 2 shards, more than 16 messages per window
     and direction on average means some mailbox held more). The result
     must not change. *)
  let delay = Sim_time.us 100 in
  let seq = run_ring ~delay ~shards:1 () in
  List.iter
    (fun shards ->
      let par = run_ring ~delay ~shards () in
      let directions = List.length par.Parsim.plan.pair_delays in
      if shards = 2 && par.Parsim.cross_sent <= 16 * par.rounds_executed * directions then
        Alcotest.failf "%d messages in %d windows over %d directions: no mailbox outgrew 16"
          par.cross_sent par.rounds_executed directions;
      check_same_run seq par)
    [ 2; 4 ]

let test_cross_delivered_once () =
  (* Every cross-shard message a window sends is released once, by the
     next barrier: the sharded run delivers over its cross links exactly
     what the sequential run's real links delivered over the same links
     — nothing lost, nothing doubled. The 100 us delay leaves the
     packets sent in the last 100 us before [until] in flight. *)
  let delay = Sim_time.us 100 in
  let seq = run_ring ~delay ~shards:1 () in
  let seq_links = seq.Parsim.ctxs.(0).Parsim.links in
  List.iter
    (fun shards ->
      let par = run_ring ~delay ~shards () in
      let delivered =
        List.fold_left
          (fun acc (c : Parsim.cross_link) ->
            acc + Tmgr.Link.delivered (List.assoc c.link.link_id seq_links))
          0 par.Parsim.plan.cross
      in
      Alcotest.(check bool) "cross links carried traffic" true (delivered > 0);
      Alcotest.(check int) "delivered = the sequential links' deliveries" delivered
        par.Parsim.cross_delivered;
      Alcotest.(check bool) "until cut arrivals off" true
        (par.Parsim.cross_sent > par.Parsim.cross_delivered))
    [ 2; 4 ]

let test_ring_repeats_under_ties () =
  (* With no link skew and a link delay that makes a forwarded packet
     land on the picosecond of the next one from the local host, the
     scheduler's tie order decides the trace. That order is each
     shard's post order, which stays fixed only if every barrier
     releases exactly the previous windows' messages — however the
     shards happen to interleave. *)
  let delay = Sim_time.ps 1_763_200 (* 2.048 us CBR gap - 284.8 ns switch transit *) in
  let hwms (r : Parsim.result) =
    Array.map (fun (c : Parsim.shard_ctx) -> Scheduler.queue_depth_hwm c.Parsim.sched) r.ctxs
  in
  List.iter
    (fun shards ->
      let first = run_ring ~skew:0 ~delay ~shards () in
      Alcotest.(check bool) "ties are real" true (first.Parsim.tie_arrivals > 0);
      for _ = 2 to 10 do
        let again = run_ring ~skew:0 ~delay ~shards () in
        Alcotest.(check (list string)) "trace repeats" first.Parsim.trace again.Parsim.trace;
        Alcotest.(check string) "metrics repeat" first.Parsim.metrics_json
          again.Parsim.metrics_json;
        Alcotest.(check (array int)) "per-shard queue hwm repeats" (hwms first) (hwms again)
      done)
    [ 2; 4 ]

let test_round_ledger () =
  (* One slot per shard, and a shard's busy + wait + release time is a
     disjoint part of the run's wall clock (rounding slack only). *)
  List.iter
    (fun shards ->
      let r = run_ring ~shards () in
      let len a = Array.length a in
      Alcotest.(check (list int)) "ledger lengths" [ shards; shards; shards; shards ]
        [ len r.Parsim.shard_busy_s; len r.shard_wait_s; len r.shard_release_s; len r.shard_parks ];
      for s = 0 to shards - 1 do
        let spent = r.shard_busy_s.(s) +. r.shard_wait_s.(s) +. r.shard_release_s.(s) in
        if not (spent <= r.wall_s +. 1e-9) then
          Alcotest.failf "shard %d: busy + wait + release %.6f s > wall %.6f s" s spent r.wall_s
      done;
      if shards = 1 then begin
        Alcotest.(check (float 0.)) "sequential: busy = wall" r.wall_s r.shard_busy_s.(0);
        Alcotest.(check (float 0.)) "sequential: no wait" 0. r.shard_wait_s.(0);
        Alcotest.(check int) "sequential: no parks" 0 r.shard_parks.(0)
      end)
    [ 1; 2; 4 ]

let test_ring_auto_shards () =
  (* shards = 0 lets the engine pick: the machine's recommended domain
     count, capped by the switch count — and the pick conforms like any
     explicit count. *)
  let seq = run_ring ~shards:1 () in
  let auto = run_ring ~shards:0 () in
  Alcotest.(check int) "resolved shard count"
    (min (Parsim.recommended_domains ()) 4)
    auto.Parsim.plan.part.shards;
  check_same_run seq auto

let test_run_largest_until () =
  (* [Horizon.no_event - 1] is the last [until] [run] accepts, and it
     runs to quiescence: one packet from every host, halfway round the
     ring, at 1 and 2 shards alike. *)
  let switches = 4 in
  let run shards =
    Parsim.run
      (Parsim.config ~shards ~record_trace:true ~until:(Horizon.no_event - 1)
         ~switch_config:(fun _ -> Event_switch.default_config Arch.sume_event_switch)
         ~program:(fun _ -> ring_program ~switches)
         ~on_shard:(fun ctx ->
           List.iter
             (fun (h, host) ->
               Host.send host
                 (Packet.udp_packet ~src:(addr_of_host h)
                    ~dst:(addr_of_host ((h + 2) mod switches))
                    ~src_port:4000 ~dst_port:5000 ~payload_len:100 ()))
             ctx.Parsim.hosts)
         ())
      (Topology.ring ~switches ())
  in
  let seq = run 1 and par = run 2 in
  Alcotest.(check (array int)) "every packet delivered" [| 1; 1; 1; 1 |] seq.Parsim.host_received;
  Alcotest.(check bool) "cross-shard messages flowed" true (par.Parsim.cross_sent > 0);
  Alcotest.(check int) "every cross-shard message delivered" par.Parsim.cross_sent
    par.Parsim.cross_delivered;
  check_same_run seq par;
  Array.iter
    (fun (c : Parsim.shard_ctx) ->
      Alcotest.(check bool) "queue empty" true (Scheduler.next_time c.Parsim.sched < 0))
    (Array.append seq.Parsim.ctxs par.Parsim.ctxs)

let test_run_leaves_events_past_until () =
  (* [until] is inclusive, and [run] returns with every later event
     still queued, which is how a caller proves that a finite [until]
     cut nothing off. *)
  let until = Sim_time.us 10 in
  List.iter
    (fun shards ->
      let at_until = Array.make shards 0 and past = Array.make shards 0 in
      let r =
        Parsim.run
          (Parsim.config ~shards ~until
             ~switch_config:(fun _ -> Event_switch.default_config Arch.sume_event_switch)
             ~program:(fun _ -> Fixtures.forward_all ~out_port:1)
             ~on_shard:(fun ctx ->
               let s = ctx.Parsim.shard and sched = ctx.Parsim.sched in
               ignore (Scheduler.schedule sched ~at:until (fun () -> at_until.(s) <- 1));
               ignore (Scheduler.schedule sched ~at:(until + 1) (fun () -> past.(s) <- 1)))
             ())
          (Topology.ring ~switches:4 ())
      in
      Alcotest.(check (array int)) "event at until ran" (Array.make shards 1) at_until;
      Alcotest.(check (array int)) "event past until did not" (Array.make shards 0) past;
      Array.iter
        (fun (c : Parsim.shard_ctx) ->
          Alcotest.(check int) "still queued" (until + 1) (Scheduler.next_time c.Parsim.sched))
        r.Parsim.ctxs)
    [ 1; 2 ]

let test_failing_shard_raises () =
  (* A handler that raises under fail-fast supervision ends the run with
     its exception, whichever shard owns the switch: the other shards
     stop waiting for it at the barrier, every domain is joined, and
     [run] re-raises. A shard's metrics export,
     which runs on the shard's domain, takes the same path when a
     series it exports was registered with another kind. *)
  let switches = 4 and until = Sim_time.us 100 in
  let topo = Topology.ring ~switches () in
  let run ~shards ~failing ~collide =
    Parsim.run
      (Parsim.config ~shards ~until
         ~switch_config:(fun _ ->
           let cfg = Event_switch.default_config Arch.sume_event_switch in
           {
             cfg with
             Event_switch.resil =
               {
                 (Resil.Supervisor.default_config ()) with
                 Resil.Supervisor.policy = Resil.Policy.Fail_fast;
               };
           })
         ~program:(fun sw ctx ->
           if sw = failing && not collide then
             Program.make ~name:"failing"
               ~ingress:(fun _ _ -> failwith (Printf.sprintf "switch %d" failing))
               ()
           else ring_program ~switches ctx)
         ~on_shard:(fun ctx ->
           if collide && List.mem_assoc failing ctx.Parsim.switches then
             ignore
               (Obs.Metrics.gauge ctx.Parsim.metrics
                  ~labels:[ ("switch", string_of_int failing) ]
                  "tm.drops"
                 : Obs.Metrics.Gauge.t);
           List.iter
             (fun (h, host) ->
               let dst = (h + 1) mod switches in
               let flow =
                 Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                   ~proto:Netcore.Ipv4.proto_udp ~src_port:4000 ~dst_port:5000 ()
               in
               ignore
                 (Workloads.Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps:1.
                    ~stop:until ~send:(Host.send host) ()
                   : Workloads.Traffic.t))
             ctx.Parsim.hosts)
         ())
      topo
  in
  List.iter
    (fun shards ->
      let part = Parsim.partition topo ~shards in
      List.iter
        (fun (failing, owner) ->
          Alcotest.(check int) "failing switch's shard" owner part.shard_of_switch.(failing);
          (match run ~shards ~failing ~collide:false with
          | exception Resil.Supervisor.Failed (_, Failure msg) ->
              Alcotest.(check string) "the handler's exception" (Printf.sprintf "switch %d" failing)
                msg
          | exception e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e)
          | _ -> Alcotest.failf "%d shards: switch %d's failure did not surface" shards failing);
          Alcotest.check_raises "the export's kind collision"
            (Invalid_argument "Metrics: \"tm.drops\" already registered as a gauge, not a counter")
            (fun () -> ignore (run ~shards ~failing ~collide:true : Parsim.result)))
        [ (0, 0); (switches - 1, shards - 1) ])
    [ 2; 4 ]

(* Profiling every shard's scheduler into its registry under the same
   series names cannot be merged. At 2 shards that raises after
   [on_shard], before any event runs; at 1 shard there is nothing to
   merge and the run completes. *)
let test_shard_series_collide_before_start () =
  let topo = Topology.ring ~switches:4 () in
  let ran = ref false in
  let run ~shards =
    Parsim.run
      (Parsim.config ~shards ~until:(Sim_time.us 10)
         ~switch_config:(fun _ -> Event_switch.default_config Arch.event_pisa_full)
         ~program:(fun _ -> Fixtures.forward_all ~out_port:1)
         ~on_shard:(fun ctx ->
           Scheduler.set_metrics ~wall:false ctx.Parsim.sched ctx.Parsim.metrics;
           Scheduler.post ctx.Parsim.sched ~at:(Sim_time.us 1) (fun () -> ran := true))
         ())
      topo
  in
  Alcotest.check_raises "2 shards: one series in both registries"
    (Invalid_argument
       "Metrics: series \"scheduler.queue_depth\" {} registered by several registries")
    (fun () -> ignore (run ~shards:2 : Parsim.result));
  Alcotest.(check bool) "2 shards: no event ran" false !ran;
  let r = run ~shards:1 in
  Alcotest.(check bool) "1 shard: the run completes" true !ran;
  Alcotest.(check int) "1 shard: its events ran" 1 r.Parsim.events

let suite =
  [
    Alcotest.test_case "partition: every switch exactly once" `Quick test_partition_exactly_once;
    Alcotest.test_case "partition: bad shard counts raise" `Quick test_partition_bad_counts;
    Alcotest.test_case "plan: link coverage + pair delays" `Quick test_plan_link_coverage;
    Alcotest.test_case "plan: pair delays = fastest cross link" `Quick test_plan_pair_delays;
    Alcotest.test_case "plan: single shard" `Quick test_plan_single_shard;
    Alcotest.test_case "partition: skewed weights never empty" `Quick
      test_partition_skewed_weights;
    QCheck_alcotest.to_alcotest qcheck_partition_never_empty;
    Alcotest.test_case "horizon: adaptive bound" `Quick test_adaptive_bound;
    QCheck_alcotest.to_alcotest qcheck_adaptive_safety;
    Alcotest.test_case "drain_until_horizon" `Quick test_drain_until_horizon;
    Alcotest.test_case "topology: validate" `Quick test_topology_validate;
    Alcotest.test_case "topology: make" `Quick test_topology_make;
    Alcotest.test_case "topology: validate at scale (k=16/k=32/ring-1024)" `Quick
      test_topology_validate_at_scale;
    Alcotest.test_case "fat-tree routing reaches destination" `Quick test_fat_tree_route_reaches;
    Alcotest.test_case "zero-alloc fat-tree routing" `Quick test_fat_tree_route_zero_alloc;
    Alcotest.test_case "ring routing reaches destination" `Quick test_ring_route_reaches;
    Alcotest.test_case "ring: sharded = sequential" `Quick test_ring_conformance;
    Alcotest.test_case "ring: wide windows = sequential" `Quick test_ring_wide_windows;
    Alcotest.test_case "ring: cross-shard messages delivered once" `Quick
      test_cross_delivered_once;
    Alcotest.test_case "sharded run repeats itself under ties" `Quick test_ring_repeats_under_ties;
    Alcotest.test_case "round ledger: one slot per shard, within wall" `Quick test_round_ledger;
    Alcotest.test_case "ring: auto shard count = sequential" `Quick test_ring_auto_shards;
    Alcotest.test_case "run: largest until runs to quiescence" `Quick test_run_largest_until;
    Alcotest.test_case "run: events past until stay queued" `Quick test_run_leaves_events_past_until;
    Alcotest.test_case "run: a failing shard's exception surfaces" `Quick test_failing_shard_raises;
    Alcotest.test_case "run: shard series collide before the clock starts" `Quick
      test_shard_series_collide_before_start;
  ]
