(* E27 — datacenter scale: k=16 fat tree under a streaming Zipf flow
   mix, plus the adaptive horizon on sparse traffic and a 1000+-switch
   ring.

   Where E23 pins conformance on a k=4 pod with a handful of CBR
   flows, this experiment is the scale tentpole: 1024 hosts, hundreds
   of thousands of Poisson flow arrivals streamed through
   [Workloads.Flowgen.install] (O(live flows) memory, never
   O(population)), and a packet-arrival population far too large to
   retain as a trace — conformance across shard counts is checked on
   [Parsim]'s O(1)-space order-independent arrival digest instead.
   Three legs:

   - {e conformance + throughput}: the same seeded workload at every
     shard count of the sweep; every run must produce the sequential run's
     arrival digest and merged metrics byte-for-byte, while we record
     the throughput curve and the peak number of concurrently live
     flows (sampled at fixed simulated instants by per-shard probes).
   - {e sparse}: a k=8 fat tree where 16 hosts send 6 packets each at
     500 us spacing — the workload class where fixed windows of the
     min cross-link delay would grind through thousands of empty
     rounds. The adaptive horizon must finish in measurably fewer.
   - {e ring}: a 1024-switch ring (auto shard count) showing the
     partitioner and engine at 1000+ entities outside the fat-tree
     shape. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Flowgen = Workloads.Flowgen
module Traffic = Workloads.Traffic

let name = "dcscale"
let k = 16
let num_hosts = k * k * k / 4 (* 1024 *)
let hosts_per_pod = k * k / 4 (* 64 *)

let topo () = Topology.fat_tree ~k ()

(* Same addressing scheme as E23: host h owns 10.0.(h lsr 8).(h land
   0xff), low 16 bits recover the id. *)
let addr_of_host h = Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)
let host_of_addr a = Ipv4_addr.to_int a land 0xffff

let routing_program : Program.spec =
 fun _install_ctx ->
  Program.make ~name:"dc-route"
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

(* Popular keys (rank <= 100, the bulk of a Zipf-1.1 mix) stay inside
   the sender's pod; the tail crosses pods through the core. The
   mapping depends only on (host, rank) — never on shards. *)
let dst_of ~h rank =
  if rank <= 100 then begin
    let base = h / hosts_per_pod * hosts_per_pod in
    base + ((h - base + 1 + (rank mod (hosts_per_pod - 1))) mod hosts_per_pod)
  end
  else (h + hosts_per_pod + (rank * 97 mod (num_hosts - hosts_per_pod))) mod num_hosts

let flow_of ~h rank =
  Netcore.Flow.make ~src:(addr_of_host h)
    ~dst:(addr_of_host (dst_of ~h rank))
    ~proto:Netcore.Ipv4.proto_udp
    ~src_port:(1024 + (rank land 0xfff))
    ~dst_port:(5000 + (h land 0xfff))
    ()

(* Workload sizing, all simulated-time: flows arrive per host as a
   Poisson process until [arrival_stop], each emitting a capped-Pareto
   number of packets [rate_pps] apart; [until] leaves room for every
   started flow to finish and the fabric to drain. *)
type knobs = {
  until : Sim_time.t;
  arrival_stop : Sim_time.t;
  arrival_rate_per_host : float;
  rate_pps : float;
  mean_packets : float;
  max_packets : int;
  concurrency_target : int;  (** min peak live flows expected; 0 = not checked *)
}

(* ~233k flows fleet-wide, ~115k concurrently live at steady state
   (arrival rate x mean lifetime), ~0.7M packets. The time axis is
   deliberately stretched (packet arrivals ~5 ns apart fleet-wide,
   not sub-ns): picosecond timestamps of independent Poisson sources
   collide birthday-style once arrival density approaches the
   timestamp resolution, and every collision voids the
   no-simultaneous-arrivals precondition the cross-shard conformance
   guarantee rests on ({!Parsim.result.tie_arrivals}). At this
   density the pinned seeds run tie-free; the event count — the thing
   throughput scaling is measured on — is unaffected by the stretch. *)
let full_knobs =
  {
    until = Sim_time.us 22_400;
    arrival_stop = Sim_time.us 9_600;
    arrival_rate_per_host = 23_750.;
    rate_pps = 416.7;
    mean_packets = 6.;
    max_packets = 6;
    concurrency_target = 100_000;
  }

let spec_of knobs =
  {
    Flowgen.num_flows = 10_000_000 (* the arrival_stop cuts the chain first *);
    key_space = 400;
    zipf_alpha = 1.1;
    mean_packets = knobs.mean_packets;
    max_packets = knobs.max_packets;
    pkt_bytes = 256;
    arrival_rate_per_sec = knobs.arrival_rate_per_host;
  }

(* Concurrency is sampled at fixed simulated instants: each shard
   posts one bounded probe per instant summing its sources'
   [live_flows]; the fleet total at instant i is the sum over shards.
   Probes are plain workload events — identical on every shard layout,
   touching no packets, so digests are unaffected. *)
let sample_times knobs =
  let s = knobs.arrival_stop in
  [ s / 2; 3 * s / 4; s - 1; s + ((knobs.until - s) / 4) ]

let num_samples = 4

let install_traffic ~knobs ~seed ~samples ~sources (ctx : Parsim.shard_ctx) =
  let spec = spec_of knobs in
  let shard_sources =
    List.map
      (fun (h, host) ->
        let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
        Flowgen.install ~sched:ctx.Parsim.sched ~rng
          ~flow_of_rank:(fun rank -> flow_of ~h rank)
          ~arrival_stop:knobs.arrival_stop ~rate_pps_per_flow:knobs.rate_pps spec
          ~send:(Host.send host) ())
      ctx.Parsim.hosts
  in
  (* on_shard runs on the spawning domain before the clock starts, so
     this accumulation is sequential; the per-shard [samples] row is
     only ever written by the owning shard's domain. *)
  sources := shard_sources @ !sources;
  List.iteri
    (fun i t ->
      Scheduler.post ~cls:"workload" ctx.Parsim.sched ~at:t (fun () ->
          samples.(ctx.Parsim.shard).(i) <-
            List.fold_left (fun acc s -> acc + s.Flowgen.live_flows) 0 shard_sources))
    (sample_times knobs)

let scenario ?(shards = 1) ?(record_digest = true) ?samples ?sources ~seed ~knobs () =
  let samples =
    match samples with Some s -> s | None -> Array.make_matrix num_hosts num_samples 0
  in
  let sources = match sources with Some s -> s | None -> ref [] in
  Parsim.config ~shards ~record_digest ~until:knobs.until
    ~switch_config:(switch_config ~seed)
    ~program:(fun _ -> routing_program)
    ~on_shard:(install_traffic ~knobs ~seed ~samples ~sources)
    ()

(* ------------------------------------------------------------------ *)
(* Golden digests: a scaled-down (but still ~15k-flow, 320-switch)
   version of the workload whose arrival digest + merged metrics are
   pinned in test/golden/, exactly the E23-E26 fixture shape. *)

let golden_knobs =
  {
    until = Sim_time.us 300;
    arrival_stop = Sim_time.us 150;
    arrival_rate_per_host = 100_000.;
    rate_pps = 50_000.;
    mean_packets = 3.;
    max_packets = 4;
    concurrency_target = 0;
  }

let golden =
  {
    Conformance.name = "e27";
    seeds = [ 42; 7 ];
    (* Uneven cuts (3, 5, 6, 7) beside the powers of two. *)
    shards = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    topo;
    legs =
      (fun ~shards ~seed ->
        [ (None, scenario ~shards ~record_digest:true ~seed ~knobs:golden_knobs ()) ]);
  }

(* ------------------------------------------------------------------ *)
(* Leg 1: conformance + throughput at datacenter size                  *)

(* What [scenario] fills in during one run: per-shard live-flow counts
   at the sample instants, and every host's source stats. *)
type probes = { samples : int array array; sources : Flowgen.source_stats list ref }

let peak_live p =
  let peak = ref 0 in
  for i = 0 to num_samples - 1 do
    let total = Array.fold_left (fun acc row -> acc + row.(i)) 0 p.samples in
    if total > !peak then peak := total
  done;
  !peak

let flows p = List.fold_left (fun acc s -> acc + s.Flowgen.flows_started) 0 !(p.sources)
let packets p = List.fold_left (fun acc s -> acc + s.Flowgen.packets_sent) 0 !(p.sources)

type sparse = {
  sp_shards : int;
  rounds : int;
  windows : int;  (** ceil ((until + 1) / L), L = min cross-link delay *)
  wall : float;
}

type ring_leg = {
  rg_switches : int;
  rg_shards : int;  (** resolved from auto *)
  rg_rounds : int;
  rg_events : int;
  rg_received : int;
  rg_wall : float;
}

type result = {
  seed : int;
  knobs : knobs;
  runs : probes Conformance.run list;
  all_conformant : bool;
  peak_live : int;  (** max over runs and sample instants of fleet-wide live flows *)
  concurrency_ok : bool;
  sparse : sparse;
  ring : ring_leg;
}

(* ------------------------------------------------------------------ *)
(* Leg 2: sparse traffic under the adaptive horizon                    *)

let sparse_k = 8
let sparse_hosts = sparse_k * sparse_k * sparse_k / 4 (* 128 *)
let sparse_until = Sim_time.ms 3

let sparse_program : Program.spec =
 fun _ ->
  Program.make ~name:"sparse-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.fat_tree_route ~k:sparse_k ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

(* 16 active hosts, 6 packets each at 500 us spacing, cross-pod: the
   event population is tiny and bursty, so fixed windows of the min
   cross-link delay would execute thousands of empty barrier rounds
   that the adaptive bound skips over. *)
let sparse_traffic ~seed:_ (ctx : Parsim.shard_ctx) =
  let gap = Sim_time.us 500 in
  List.iter
    (fun (h, host) ->
      if h mod 8 = 0 then begin
        let dst = (h + (sparse_hosts / sparse_k * 2)) mod sparse_hosts in
        let flow =
          Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
            ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
        in
        let start = Sim_time.us (10 + h) in
        let stop = start + (5 * gap) + Sim_time.ns 1 in
        (* rate such that cbr's inter-packet gap is exactly 500 us *)
        let rate_gbps = 256. *. 8. /. Sim_time.to_ns gap in
        ignore
          (Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps ~start
             ~stop ~send:(Host.send host) ()
            : Traffic.t)
      end)
    ctx.Parsim.hosts

let run_sparse ~seed ~shards =
  let cfg =
    Parsim.config ~shards ~until:sparse_until
      ~switch_config:(switch_config ~seed)
      ~program:(fun _ -> sparse_program)
      ~on_shard:(sparse_traffic ~seed) ()
  in
  let r = Parsim.run cfg (Topology.fat_tree ~k:sparse_k ()) in
  (* Fixed windows of the min cross-link delay L would tile [0, until]
     in ceil ((until + 1) / L) rounds; with nothing crossing, one. *)
  let windows =
    match r.plan.pair_delays with
    | [] -> 1
    | ds ->
        let l = List.fold_left (fun acc (_, _, d) -> min acc d) max_int ds in
        (sparse_until + l) / l
  in
  { sp_shards = shards; rounds = r.rounds_executed; windows; wall = r.wall_s }

let sparse_passed s = s.rounds < s.windows

(* ------------------------------------------------------------------ *)
(* Leg 3: 1024-switch ring, auto shard count                           *)

let ring_switches = 1024
let ring_until = Sim_time.us 150

let ring_program : Program.spec =
 fun _ ->
  Program.make ~name:"ring-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.ring_route ~switches:ring_switches ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

let ring_traffic (ctx : Parsim.shard_ctx) =
  let gap = Sim_time.us 20 in
  List.iter
    (fun (h, host) ->
      let dst = (h + 3) mod ring_switches in
      let flow =
        Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
          ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + (h land 0xfff))
          ~dst_port:(5000 + (dst land 0xfff)) ()
      in
      let start = Sim_time.ns (10 * h) in
      let stop = start + (3 * gap) + Sim_time.ns 1 in
      let rate_gbps = 256. *. 8. /. Sim_time.to_ns gap in
      ignore
        (Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps ~start ~stop
           ~send:(Host.send host) ()
          : Traffic.t))
    ctx.Parsim.hosts

let run_ring ~seed =
  let topo = Topology.ring ~switches:ring_switches () in
  let cfg =
    Parsim.config ~shards:0 (* auto: recommended domain count *) ~until:ring_until
      ~switch_config:(switch_config ~seed)
      ~program:(fun _ -> ring_program)
      ~on_shard:ring_traffic ()
  in
  let r = Parsim.run cfg topo in
  {
    rg_switches = ring_switches;
    rg_shards = r.Parsim.plan.Parsim.part.Parsim.shards;
    rg_rounds = r.Parsim.rounds_executed;
    rg_events = r.Parsim.events;
    rg_received = Array.fold_left ( + ) 0 r.Parsim.host_received;
    rg_wall = r.Parsim.wall_s;
  }

(* ------------------------------------------------------------------ *)

let run ?metrics ?(seed = 42) () =
  let knobs = full_knobs in
  let runs =
    Conformance.sweep (topo ()) (fun ~shards ->
        let p = { samples = Array.make_matrix num_hosts num_samples 0; sources = ref [] } in
        (scenario ~shards ~samples:p.samples ~sources:p.sources ~seed ~knobs (), p))
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      List.iter
        (fun (v : probes Conformance.run) ->
          let labels = [ ("shards", string_of_int v.shards) ] in
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e27.events") v.result.events;
          Obs.Metrics.Counter.set
            (Obs.Metrics.counter reg ~labels "e27.peak_live_flows")
            (peak_live v.state))
        runs);
  let peak_live = List.fold_left (fun acc v -> max acc (peak_live v.Conformance.state)) 0 runs in
  {
    seed;
    knobs;
    runs;
    all_conformant = Conformance.all_conformant runs;
    peak_live;
    concurrency_ok = peak_live >= knobs.concurrency_target;
    sparse = run_sparse ~seed ~shards:4;
    ring = run_ring ~seed;
  }

(* One cell for a per-shard ledger column: values joined by "/". *)
let per_shard f a = String.concat "/" (Array.to_list (Array.map f a))

let print r =
  Report.section
    (Printf.sprintf "E27 / Sec 4 — datacenter scale: k=%d fat tree (%d switches, %d hosts)"
       k (Topology.fat_tree ~k ()).Topology.switches num_hosts);
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.knobs.until);
  Report.kv "flow arrivals until" (Report.time_ps r.knobs.arrival_stop);
  Report.blank ();
  Report.table
    ~headers:
      [
        "shards"; "rounds"; "events"; "cross msgs"; "flows"; "pkts"; "rx"; "ties"; "wall s";
        "busy s"; "wait s"; "release s"; "parks"; "Mev/s"; "digest"; "conform";
      ]
    ~rows:
      (List.map
         (fun (v : probes Conformance.run) ->
           let p = v.result in
           [
             string_of_int v.shards;
             string_of_int p.rounds_executed;
             string_of_int p.events;
             string_of_int p.cross_sent;
             string_of_int (flows v.state);
             string_of_int (packets v.state);
             string_of_int (Array.fold_left ( + ) 0 p.host_received);
             string_of_int p.tie_arrivals;
             Printf.sprintf "%.2f" p.wall_s;
             per_shard (Printf.sprintf "%.2f") p.shard_busy_s;
             per_shard (Printf.sprintf "%.2f") p.shard_wait_s;
             per_shard (Printf.sprintf "%.3f") p.shard_release_s;
             per_shard string_of_int p.shard_parks;
             Printf.sprintf "%.2f" (float_of_int p.events /. p.wall_s /. 1e6);
             Conformance.short "arrivals" v;
             (if v.conformant then "ok" else "DIVERGED");
           ])
         r.runs);
  Report.blank ();
  Report.kv "arrival digest and metrics identical across shard counts"
    (if r.all_conformant then "PASS" else "FAIL");
  Report.kv "peak concurrently live flows"
    (Printf.sprintf "%d%s" r.peak_live
       (if r.knobs.concurrency_target > 0 then
          Printf.sprintf " (target >= %d: %s)" r.knobs.concurrency_target
            (if r.concurrency_ok then "PASS" else "FAIL")
        else ""));
  Report.blank ();
  Report.section "sparse leg — adaptive horizon (k=8, 16 sparse senders)";
  Report.kv "shards" (string_of_int r.sparse.sp_shards);
  Report.kv "rounds" (string_of_int r.sparse.rounds);
  Report.kv "fixed windows of the min cross-link delay" (string_of_int r.sparse.windows);
  Report.kv "wall ms" (Printf.sprintf "%.1f" (r.sparse.wall *. 1e3));
  Report.kv "round reduction (windows / rounds)"
    (Printf.sprintf "%.1fx %s"
       (float_of_int r.sparse.windows /. float_of_int (max 1 r.sparse.rounds))
       (if sparse_passed r.sparse then "(PASS)" else "(FAIL)"));
  Report.blank ();
  Report.section "ring leg — 1024 switches, auto shard count";
  Report.kv "shards (auto)" (string_of_int r.ring.rg_shards);
  Report.kv "rounds" (string_of_int r.ring.rg_rounds);
  Report.kv "events" (string_of_int r.ring.rg_events);
  Report.kv "packets delivered" (string_of_int r.ring.rg_received);
  Report.kv "wall ms" (Printf.sprintf "%.1f" (r.ring.rg_wall *. 1e3))
