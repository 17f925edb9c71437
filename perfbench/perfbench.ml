(* Whole-run simulator benchmark: one operation per process.

   An operation is one complete simulation as a user runs it: build the
   workload's [Evcore.Topology.t], let [Parsim.run] install switches,
   programs and wiring, install the traffic sources from [on_shard], run
   to the horizon and merge the result. [run.py] starts one process per
   operation — every operation starts from a cold heap, and its peak RSS
   is its own — and aggregates medians.

   The workloads use only the surface that survives the planned
   simplifications: [Evcore.Topology] values, [Parsim.run] (a sequential
   run is [~shards:1]), [Workloads.Flowgen]/[Traffic], [Evcore.Program]
   and [Apps.Microburst]. They pass no scheduler backend, horizon mode,
   link skew or source jitter, and call no [Experiments] scenario code.

   Output: one JSON object on stdout with the timings, the output checks,
   the exact counts read from public accessors after the clock stops
   and, with [--trace], the raw material of the per-layer ledger. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Event = Devents.Event
module Event_merger = Devents.Event_merger
module Traffic_manager = Tmgr.Traffic_manager
module Link = Tmgr.Link
module Flowgen = Workloads.Flowgen
module Traffic = Workloads.Traffic
module Packet = Netcore.Packet

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                *)

(* Fixed work on the OCaml runtime alone, no simulator code: a random
   pointer chase over a 16 MB cycle with a short-lived allocation per
   step. Its time tracks how fast this host runs code like the
   simulator's at the moment; run.py runs it in its own process between
   operations and scales their times by it. *)
let ref_cells = 1 lsl 21
let ref_steps = 1_000_000

let reference_ns () =
  let st = Random.State.make [| 42 |] in
  let next = Array.init ref_cells (fun i -> i) in
  for i = ref_cells - 1 downto 1 do
    let j = Random.State.int st i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let ring = Array.make 4096 (0, 0) in
  let p = ref 0 in
  let t0 = now_ns () in
  for i = 1 to ref_steps do
    p := next.(!p);
    ring.(i land 4095) <- (i, !p)
  done;
  let dt = now_ns () - t0 in
  ignore (Sys.opaque_identity ring);
  dt

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

type json = I of int | F of float | S of string | B of bool | O of (string * json) list | L of json list

let rec write_json b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | B v -> Buffer.add_string b (string_of_bool v)
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:" k);
          write_json b v)
        kvs;
      Buffer.add_char b '}'
  | L vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write_json b v)
        vs;
      Buffer.add_char b ']'

let json_string v =
  let b = Buffer.create 4096 in
  write_json b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Spans (traced operation only)                                       *)

(* One slot per event class, by [Event.cls_index], for handler spans;
   one more for source sends. Packet-chain records also use
   [recv_slot] for the arrival at the destination host (an instant, not
   a span). *)
let send_slot = Event.num_classes
let recv_slot = Event.num_classes + 1
let span_slots = Event.num_classes + 1

(* Packets whose uid is a multiple of [sample_mask + 1] have their
   whole span chain kept, up to [max_chain] records per shard. *)
let sample_mask = 1023
let max_chain = 20_000

(* One shard's aggregate; only the domain running that shard writes it.
   Handler and send spans never nest, so a span's self time is its
   duration. [stats] holds calls then total ns per slot, starting at
   [pad] with [pad] spare words after: the two shards' aggregates never
   share a cache line. *)
type acc = {
  stats : int array;
  mutable chain : (int * int * int * int * int * int) list;
      (* uid, slot, entity, simulated ps, host start ns, host ns *)
  mutable chain_len : int;
}

let pad = 16
let new_acc () = { stats = Array.make ((2 * span_slots) + (2 * pad)) 0; chain = []; chain_len = 0 }
let calls acc slot = acc.stats.(pad + slot)
let total_ns acc slot = acc.stats.(pad + span_slots + slot)

let close acc slot t0 =
  let dt = now_ns () - t0 in
  let s = acc.stats in
  s.(pad + slot) <- s.(pad + slot) + 1;
  s.(pad + span_slots + slot) <- s.(pad + span_slots + slot) + dt;
  dt

let sampled uid = uid land sample_mask = 0

let note_chain acc ~uid ~slot ~entity ~sim ~t0 ~dt =
  if acc.chain_len < max_chain then begin
    acc.chain <- (uid, slot, entity, sim, t0, dt) :: acc.chain;
    acc.chain_len <- acc.chain_len + 1
  end

(* Wrap every handler of a program in a span, grouped by event class. *)
let traced_spec ~acc_of_switch (spec : Program.spec) : Program.spec =
 fun ctx ->
  let p = spec ctx in
  let sw = ctx.Program.switch_id in
  let acc = acc_of_switch sw in
  let on_packet cls f c pkt =
    let slot = Event.cls_index cls in
    let t0 = now_ns () in
    let d = f c pkt in
    let dt = close acc slot t0 in
    let uid = pkt.Packet.uid in
    if sampled uid then note_chain acc ~uid ~slot ~entity:sw ~sim:(c.Program.now ()) ~t0 ~dt;
    d
  in
  let on_event cls h =
    Option.map
      (fun f c ev ->
        let t0 = now_ns () in
        f c ev;
        ignore (close acc (Event.cls_index cls) t0 : int))
      h
  in
  let egress_slot = Event.cls_index Event.Egress_packet in
  {
    p with
    Program.ingress = on_packet Event.Ingress_packet p.Program.ingress;
    recirculated = Option.map (on_packet Event.Recirculated_packet) p.Program.recirculated;
    generated = Option.map (on_packet Event.Generated_packet) p.Program.generated;
    egress =
      Option.map
        (fun f c ~port pkt ->
          let t0 = now_ns () in
          let r = f c ~port pkt in
          ignore (close acc egress_slot t0 : int);
          r)
        p.Program.egress;
    enqueue = on_event Event.Buffer_enqueue p.Program.enqueue;
    dequeue = on_event Event.Buffer_dequeue p.Program.dequeue;
    overflow = on_event Event.Buffer_overflow p.Program.overflow;
    underflow = on_event Event.Buffer_underflow p.Program.underflow;
    transmitted = on_event Event.Packet_transmitted p.Program.transmitted;
    timer = on_event Event.Timer_expiration p.Program.timer;
    link_change = on_event Event.Link_status_change p.Program.link_change;
    control = on_event Event.Control_plane p.Program.control;
    user = on_event Event.User_event p.Program.user;
  }

let traced_send acc ~sched ~host send pkt =
  let t0 = now_ns () in
  send pkt;
  let dt = close acc send_slot t0 in
  let uid = pkt.Packet.uid in
  if sampled uid then
    note_chain acc ~uid ~slot:send_slot ~entity:host ~sim:(Scheduler.now sched) ~t0 ~dt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = Fabric of int  (** shards *) | Bursts

let workload_of_string = function
  | "fabric-1shard" -> Fabric 1
  | "fabric-2shard" -> Fabric 2
  | "switch-bursts" -> Bursts
  | s -> invalid_arg ("unknown workload " ^ s)

let addr_of_host h = Netcore.Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)
let host_of_addr a = Netcore.Ipv4_addr.to_int a land 0xffff

let dst_host pkt =
  match pkt.Packet.ip with Some ip -> host_of_addr ip.Netcore.Ipv4.dst | None -> -1

(* fabric-*: E27's k=16 fat tree (320 switches, 1024 hosts) under a
   streaming Zipf/Pareto flow mix. Popular keys stay inside the sender's
   pod, the tail crosses the core; the mapping depends only on (host,
   rank), never on the shard count. Flows arrive per host as a Poisson
   process until [fabric_arrival_stop]; [fabric_until] leaves room for
   every flow to finish and the fabric to drain, so nothing is in flight
   at the horizon. *)
let k = 16
let fabric_hosts = k * k * k / 4
let hosts_per_pod = k * k / 4
let fabric_arrival_stop = Sim_time.us 1_750
let fabric_until = Sim_time.us 2_050
let fabric_rate_pps = 12_500.

let fabric_spec =
  {
    Flowgen.num_flows = max_int (* the arrival stop ends the chain *);
    key_space = 400;
    zipf_alpha = 1.1;
    mean_packets = 3.;
    max_packets = 4;
    pkt_bytes = 256;
    arrival_rate_per_sec = 50_000.;
  }

let fabric_dst ~h rank =
  if rank <= 100 then begin
    let base = h / hosts_per_pod * hosts_per_pod in
    base + ((h - base + 1 + (rank mod (hosts_per_pod - 1))) mod hosts_per_pod)
  end
  else (h + hosts_per_pod + (rank * 97 mod (fabric_hosts - hosts_per_pod))) mod fabric_hosts

let fabric_flow ~h rank =
  Netcore.Flow.make ~src:(addr_of_host h)
    ~dst:(addr_of_host (fabric_dst ~h rank))
    ~proto:Netcore.Ipv4.proto_udp
    ~src_port:(1024 + (rank land 0xfff))
    ~dst_port:(5000 + (h land 0xfff))
    ()

let fabric_program : Program.spec =
 fun _ ->
  Program.make ~name:"fabric-route"
    ~ingress:(fun ctx pkt ->
      let dst = dst_host pkt in
      if dst < 0 then Program.Drop
      else Program.Forward (Topology.fat_tree_route ~k ~sw:ctx.Program.switch_id ~dst_host:dst))
    ()

(* switch-bursts: one event_pisa_full switch, a host on each of its 8
   ports. Every host runs [burst_flows] on-off flows of 64-B packets at
   port line rate toward a seeded random other host; colliding bursts
   build microbursts at the output ports. The program is the paper's
   microburst detector plus a 1 us timer whose handler sweeps the
   detector's occupancy register. *)
let burst_hosts = 8
let burst_flows = 16
let burst_rate_gbps = 10.
let burst_on = Sim_time.ns 400
let burst_off = Sim_time.us 12
let burst_stop = Sim_time.us 4_000
let burst_until = Sim_time.us 4_060
let burst_slots = 1024
let burst_threshold = 6_000

let burst_topology () =
  {
    Topology.switches = 1;
    hosts = burst_hosts;
    links = [];
    attachments =
      List.init burst_hosts (fun h ->
          { Topology.host = h; switch = 0; port = h; host_delay = Sim_time.us 1 });
  }

type bursts_app = { detector : Apps.Microburst.t; mutable swept_hot : int }

(* The register is 32 bits wide and a sweep may read a slot while its
   enqueue and dequeue updates are still being aggregated, so a read can
   be a wrapped negative. *)
let signed32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let bursts_program () =
  let spec, detector =
    Apps.Microburst.program ~slots:burst_slots ~threshold_bytes:burst_threshold
      ~out_port:(fun pkt -> max 0 (dst_host pkt))
      ()
  in
  let app = { detector; swept_hot = 0 } in
  let spec : Program.spec =
   fun ctx ->
    let p = spec ctx in
    ignore (ctx.Program.add_timer ~period:(Sim_time.us 1) : int);
    let timer _ (ev : Event.timer_event) =
      let slot = ev.Event.count land (burst_slots - 1) in
      if signed32 (Apps.Microburst.occupancy detector ~flow_slot:slot) > burst_threshold then
        app.swept_hot <- app.swept_hot + 1
    in
    { p with Program.timer = Some timer }
  in
  (spec, app)

(* ------------------------------------------------------------------ *)
(* One operation                                                       *)

type source = Flows of Flowgen.source_stats | Onoff of Traffic.t

let source_sent = function Flows s -> s.Flowgen.packets_sent | Onoff t -> Traffic.sent t

type op = {
  shards : int;
  topo : Topology.t;
  result : Parsim.result;
  sources : source list;
  peak_live : int;
  app : bursts_app option;
  setup_ns : int;
  topology_ns : int;
  wiring_ns : int;
  sources_ns : int;
  run_ns : int;
  cpu_run_s : float;
  minor_words : float;
  major_collections : int;
  accs : acc array;  (** empty unless traced *)
}

let run_op ~workload ~seed ~trace =
  let t_start = now_ns () in
  let shards, topo =
    match workload with
    | Fabric n -> (n, Topology.fat_tree ~k ())
    | Bursts -> (1, burst_topology ())
  in
  let t_topo = now_ns () in
  let accs = if trace then Array.init shards (fun _ -> new_acc ()) else [||] in
  let part = Parsim.partition topo ~shards in
  let acc_of_switch sw = accs.(part.Parsim.shard_of_switch.(sw)) in
  let wrap spec = if trace then traced_spec ~acc_of_switch spec else spec in
  let program, app =
    match workload with
    | Fabric _ -> (wrap fabric_program, None)
    | Bursts ->
        let spec, app = bursts_program () in
        (wrap spec, Some app)
  in
  let sources = ref [] in
  let live = Array.make shards 0 and peak = Array.make shards 0 in
  let first_install = ref 0 and clock_start = ref 0 in
  let cpu0 = ref 0. and gc0 = ref (Gc.quick_stat ()) in
  let on_shard (ctx : Parsim.shard_ctx) =
    if !first_install = 0 then first_install := now_ns ();
    let s = ctx.Parsim.shard and sched = ctx.Parsim.sched in
    let send_of h host =
      if trace then traced_send accs.(s) ~sched ~host:h (Host.send host) else Host.send host
    in
    if trace then
      List.iter
        (fun (h, host) ->
          Host.set_receiver host (fun _ pkt ->
              let uid = pkt.Packet.uid in
              if sampled uid then
                note_chain accs.(s) ~uid ~slot:recv_slot ~entity:h ~sim:(Scheduler.now sched)
                  ~t0:(now_ns ()) ~dt:0))
        ctx.Parsim.hosts;
    (match workload with
    | Fabric _ ->
        List.iter
          (fun (h, host) ->
            let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
            let st =
              Flowgen.install ~sched ~rng
                ~flow_of_rank:(fun rank -> fabric_flow ~h rank)
                ~arrival_stop:fabric_arrival_stop ~rate_pps_per_flow:fabric_rate_pps
                ~on_flow:(fun _ ->
                  live.(s) <- live.(s) + 1;
                  if live.(s) > peak.(s) then peak.(s) <- live.(s))
                ~on_flow_end:(fun _ -> live.(s) <- live.(s) - 1)
                fabric_spec ~send:(send_of h host) ()
            in
            sources := Flows st :: !sources)
          ctx.Parsim.hosts
    | Bursts ->
        List.iter
          (fun (h, host) ->
            for f = 0 to burst_flows - 1 do
              let rng = Stats.Rng.create ~seed:(seed + (7919 * h) + (104_729 * f)) in
              let dst = (h + 1 + Stats.Rng.int rng (burst_hosts - 1)) mod burst_hosts in
              let flow =
                Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                  ~proto:Netcore.Ipv4.proto_udp ~src_port:(1024 + f) ~dst_port:(5000 + h) ()
              in
              let start = Stats.Rng.int rng burst_off in
              let t =
                Traffic.on_off ~sched ~rng ~flow ~pkt_bytes:64 ~burst_rate_gbps
                  ~on_time:burst_on ~off_time:burst_off ~start ~stop:burst_stop
                  ~exponential_gaps:true ~send:(send_of h host) ()
              in
              sources := Onoff t :: !sources
            done;
            peak.(s) <- peak.(s) + burst_flows)
          ctx.Parsim.hosts);
    (* The last shard's install is the clock start. *)
    gc0 := Gc.quick_stat ();
    cpu0 := cpu_s ();
    clock_start := now_ns ()
  in
  let until = match workload with Fabric _ -> fabric_until | Bursts -> burst_until in
  let switch_config sw =
    let arch =
      match workload with Fabric _ -> Arch.sume_event_switch | Bursts -> Arch.event_pisa_full
    in
    { (Event_switch.default_config arch) with Event_switch.seed = seed + (31 * sw) }
  in
  let cfg =
    Parsim.config ~shards ~record_digest:true ~until ~switch_config
      ~program:(fun _ -> program)
      ~on_shard ()
  in
  let result = Parsim.run cfg topo in
  let t_end = now_ns () in
  let cpu1 = cpu_s () in
  let gc1 = Gc.quick_stat () in
  {
    shards;
    topo;
    result;
    sources = !sources;
    peak_live = Array.fold_left ( + ) 0 peak;
    app;
    setup_ns = !clock_start - t_start;
    topology_ns = t_topo - t_start;
    wiring_ns = !first_install - t_topo;
    sources_ns = !clock_start - !first_install;
    run_ns = t_end - !clock_start;
    cpu_run_s = cpu1 -. !cpu0;
    minor_words = gc1.Gc.minor_words -. !gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - !gc0.Gc.major_collections;
    accs;
  }

(* ------------------------------------------------------------------ *)
(* Exact counts and output checks (after the clock stops)              *)

let switches (r : Parsim.result) =
  Array.to_list r.Parsim.ctxs |> List.concat_map (fun (c : Parsim.shard_ctx) -> List.map snd c.switches)

let links (r : Parsim.result) =
  Array.to_list r.Parsim.ctxs |> List.concat_map (fun (c : Parsim.shard_ctx) -> List.map snd c.links)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let packet_classes = Event.[ Ingress_packet; Egress_packet; Recirculated_packet; Generated_packet ]

let is_packet_class c = List.exists (Event.cls_equal c) packet_classes

let counts op =
  let r = op.result in
  let sws = switches r and lks = links r in
  let tms = List.map Event_switch.tm sws and mergers = List.map Event_switch.merger sws in
  let offered = sum source_sent op.sources in
  let delivered = Array.fold_left ( + ) 0 r.Parsim.host_received in
  let drops =
    sum
      (fun sw ->
        Event_switch.program_drops sw + Event_switch.unrouted sw
        + Event_switch.supervised_drops sw)
      sws
    + sum (fun m -> Event_merger.packet_drops m + Event_merger.packets_shed m) mergers
    + sum (fun tm -> Traffic_manager.drops tm + Traffic_manager.egress_drops tm) tms
    + sum Link.lost lks
  in
  let in_flight =
    sum
      (fun tm ->
        let n = ref 0 in
        for port = 0 to (Traffic_manager.config tm).Traffic_manager.num_ports - 1 do
          n := !n + Traffic_manager.occupancy_pkts tm ~port
        done;
        !n)
      tms
    + sum Event_merger.packets_waiting mergers
  in
  let handled cls = sum (fun sw -> Event_switch.handled sw cls) sws in
  let merged = sum handled (List.filter (fun c -> not (is_packet_class c)) Event.all_classes) in
  let weights = r.Parsim.plan.Parsim.part.Parsim.shard_weight in
  let wmax = Array.fold_left max 0 weights and wsum = Array.fold_left ( + ) 0 weights in
  [
    ("offered", I offered);
    ("host_sent", I (Array.fold_left ( + ) 0 r.Parsim.host_sent));
    ("delivered", I delivered);
    ("drops", I drops);
    ("in_flight", I in_flight);
    ("events", I r.Parsim.events);
    ( "queue_hwm",
      I
        (Array.fold_left
           (fun acc (c : Parsim.shard_ctx) -> max acc (Scheduler.queue_depth_hwm c.Parsim.sched))
           0 r.Parsim.ctxs) );
    ("merged", I merged);
    ("piggybacked", I (sum Event_merger.piggybacked_events mergers));
    ("empty_carriers", I (sum Event_merger.empty_carriers mergers));
    ( "event_drops",
      I (sum (fun m -> List.fold_left (fun a (_, n) -> a + n) 0 (Event_merger.event_drops m)) mergers)
    );
    ("admissions", I (sum (fun sw -> Pisa.Pipeline.admissions (Event_switch.pipeline sw)) sws));
    ("handler_calls", I (sum handled Event.all_classes));
    ("ingress_calls", I (handled Event.Ingress_packet));
    ("enqueue_calls", I (handled Event.Buffer_enqueue));
    ("dequeue_calls", I (handled Event.Buffer_dequeue));
    ("timer_calls", I (handled Event.Timer_expiration));
    ("tm_enqueues", I (sum Traffic_manager.enqueues tms));
    ("tm_drops", I (sum Traffic_manager.drops tms));
    ("link_deliveries", I (sum Link.delivered lks + r.Parsim.cross_delivered));
    ( "flows",
      I (sum (function Flows s -> s.Flowgen.flows_started | Onoff _ -> 1) op.sources) );
    ("peak_live_flows", I op.peak_live);
    ("rounds", I r.Parsim.rounds_executed);
    ("cross_sent", I r.Parsim.cross_sent);
    ("weight_max", I wmax);
    ("weight_sum", I wsum);
    ( "detections",
      I (match op.app with Some a -> Apps.Microburst.detection_count a.detector | None -> 0) );
    ("swept_hot", I (match op.app with Some a -> a.swept_hot | None -> 0));
  ]

(* ------------------------------------------------------------------ *)
(* Calibration: isolated calls to the layers the benchmark never calls
   mid-run (scheduler, merger + pipeline, TM, link), shaped like the
   workload: the run's queue depth and event spacing, one merger and TM
   per switch with the switch's port count, one link per topology link,
   each driven at the run's own mean rate of that operation.
   Each returns host ns per operation; the merger, TM and link figures
   are net of the scheduler events their feeding loop executes, priced
   by a hold model of the same queue depth and event spacing. *)

let median3 f =
  let a = [| f (); f (); f () |] in
  Array.sort compare a;
  a.(1)

(* Hold model: [depth] events stay pending; each executed event posts
   its successor a uniform [1, 2 * mean_gap] ps later. *)
let hold_ns ~depth ~mean_gap ~n () =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed:17 in
  let gaps = Array.init 4096 (fun _ -> 1 + Stats.Rng.int rng (2 * max 1 mean_gap)) in
  let left = ref n and i = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      incr i;
      Scheduler.post sched ~at:(Scheduler.now sched + gaps.(!i land 4095)) tick
    end
  in
  for j = 1 to depth do
    Scheduler.post sched ~at:gaps.(j land 4095) tick
  done;
  let t0 = now_ns () in
  Scheduler.run sched;
  float_of_int (now_ns () - t0) /. float_of_int (Scheduler.executed sched)

let packet_pool sched ~bytes =
  let flow =
    Netcore.Flow.make ~src:(addr_of_host 1) ~dst:(addr_of_host 2) ~proto:Netcore.Ipv4.proto_udp
      ~src_port:1024 ~dst_port:5000 ()
  in
  Array.init 4096 (fun _ -> Traffic.make_packet ~sched ~flow ~pkt_bytes:bytes)

(* Drive [n] ticks [every] ps apart through the body [setup] returns,
   run dry, and return host ns per operation net of the scheduler's
   share. That share is priced by a hold model of the same queue depth
   and event spacing as the driven run. *)
let driven ~n ~every ~ops setup =
  let sched = Scheduler.create () in
  let body = setup sched in
  let left = ref n in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      body !left;
      Scheduler.post_after sched ~delay:(max 1 every) tick
    end
  in
  Scheduler.post sched ~at:0 tick;
  let t0 = now_ns () in
  Scheduler.run sched;
  let dt = now_ns () - t0 in
  let executed = Scheduler.executed sched in
  let depth = max 1 (Scheduler.queue_depth_hwm sched) in
  let mean_gap = max 1 (Scheduler.now sched / max 1 executed) * depth in
  let sched_ns = hold_ns ~depth ~mean_gap ~n:(max 100_000 executed) () in
  (float_of_int dt -. (float_of_int executed *. sched_ns)) /. float_of_int (max 1 (ops ()))

let merger_ns ~instances ~events_per_pkt ~every ~n () =
  let admissions = ref (fun () -> 0) in
  let setup sched =
    let pipes = Array.init instances (fun _ -> Pisa.Pipeline.create ~sched ()) in
    let mergers =
      Array.map
        (fun pipeline ->
          Event_merger.create ~sched ~pipeline ~process:(fun _ ~exit_time:_ -> ()) ())
        pipes
    in
    admissions := (fun () -> Array.fold_left (fun a p -> a + Pisa.Pipeline.admissions p) 0 pipes);
    let pkts = packet_pool sched ~bytes:64 in
    let meta = Array.make Packet.meta_slots 0 in
    let credit = ref 0. and flip = ref false in
    let enq = Event.cls_index Event.Buffer_enqueue and deq = Event.cls_index Event.Buffer_dequeue in
    fun i ->
      let m = mergers.(i mod instances) in
      ignore (Event_merger.offer_packet m Event_merger.Ingress pkts.(i land 4095) : bool);
      credit := !credit +. events_per_pkt;
      while !credit >= 1. do
        credit := !credit -. 1.;
        flip := not !flip;
        ignore
          (Event_merger.offer_buffer m ~cls_ix:(if !flip then enq else deq) ~port:0 ~qid:0
             ~pkt_len:64 ~flow_id:0 ~meta ~occupancy_pkts:0 ~occupancy_bytes:0
             ~time:(Scheduler.now sched)
            : bool)
      done
  in
  driven ~n ~every ~ops:(fun () -> !admissions ()) setup

let noop_sink =
  {
    Devents.Event_sink.enqueue =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    dequeue =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    overflow =
      (fun ~port:_ ~qid:_ ~pkt_len:_ ~flow_id:_ ~meta:_ ~occupancy_pkts:_ ~occupancy_bytes:_
           ~time:_ -> ());
    underflow = (fun ~port:_ ~qid:_ ~time:_ -> ());
    transmitted = (fun ~port:_ ~pkt_len:_ ~flow_id:_ ~time:_ -> ());
  }

(* Packets round-robin over every port of every TM. *)
let tm_ns ~instances ~ports ~bytes ~every ~n () =
  let config = { Traffic_manager.default_config with Traffic_manager.num_ports = ports } in
  let enqueues = ref (fun () -> 0) in
  let setup sched =
    let tms =
      Array.init instances (fun _ ->
          Traffic_manager.create ~sched ~config ~emit:(fun ~port:_ _ -> ()) ~events:noop_sink ())
    in
    enqueues := (fun () -> Array.fold_left (fun a tm -> a + Traffic_manager.enqueues tm) 0 tms);
    let pkts = packet_pool sched ~bytes in
    fun i ->
      ignore
        (Traffic_manager.enqueue tms.(i mod instances) ~port:(i / instances mod ports)
           pkts.(i land 4095)
          : bool)
  in
  driven ~n ~every ~ops:(fun () -> !enqueues ()) setup

(* Packets round-robin over the links, alternating directions. *)
let link_ns ~instances ~every ~n () =
  let delivered = ref (fun () -> 0) in
  let setup sched =
    let ep = { Link.deliver = (fun _ -> ()); notify_status = (fun ~up:_ -> ()) } in
    let links = Array.init instances (fun _ -> Link.create ~sched ~a:ep ~b:ep ()) in
    delivered := (fun () -> Array.fold_left (fun a l -> a + Link.delivered l) 0 links);
    let pkts = packet_pool sched ~bytes:256 in
    fun i -> Link.send links.(i mod instances) ~from_a:(i land 1 = 0) pkts.(i land 4095)
  in
  driven ~n ~every ~ops:(fun () -> !delivered ()) setup

(* What an empty span records: the clock-read cost inside every span,
   subtracted from measured span totals. *)
let span_floor_ns () =
  let acc = new_acc () in
  let n = 1_000_000 in
  for _ = 1 to n do
    ignore (close acc 0 (now_ns ()) : int)
  done;
  float_of_int (total_ns acc 0) /. float_of_int n

let calibrate op =
  let r = op.result in
  let c = counts op in
  let get k = match List.assoc k c with I v -> v | _ -> 0 in
  let depth = max 1 (get "queue_hwm") in
  let horizon = Scheduler.now r.Parsim.ctxs.(0).Parsim.sched in
  let every ops = max 1 (horizon / max 1 ops) in
  (* pending events are spread over [depth] times the mean gap between
     consecutive events of one shard *)
  let mean_gap = every (get "events" / op.shards) * depth in
  let sched_ns = median3 (hold_ns ~depth ~mean_gap ~n:1_000_000) in
  let events_per_pkt = float_of_int (get "merged") /. float_of_int (max 1 (get "ingress_calls")) in
  let switches = op.topo.Topology.switches in
  let ports = Array.fold_left max 1 (Topology.ports op.topo) in
  let links = List.length op.topo.Topology.links + op.topo.Topology.hosts in
  let bytes = match op.app with Some _ -> 64 | None -> fabric_spec.Flowgen.pkt_bytes in
  let n = 300_000 in
  [
    ("sched_ns", F sched_ns);
    ("sched_depth", I depth);
    ("sched_mean_gap_ps", I mean_gap);
    ( "admit_ns",
      F
        (median3
           (merger_ns ~instances:switches ~events_per_pkt ~every:(every (get "ingress_calls")) ~n))
    );
    ( "tm_ns",
      F (median3 (tm_ns ~instances:switches ~ports ~bytes ~every:(every (get "tm_enqueues")) ~n)) );
    ("link_ns", F (median3 (link_ns ~instances:links ~every:(every (get "link_deliveries")) ~n)));
    ("span_floor_ns", F (median3 span_floor_ns));
  ]

let spans op =
  let tot f = Array.fold_left (fun a acc -> a + f acc) 0 op.accs in
  List.init span_slots (fun slot ->
      let name = if slot = send_slot then "send" else Event.cls_name (List.nth Event.all_classes slot) in
      ( name,
        O
          [
            ("calls", I (tot (fun a -> calls a slot)));
            ("total_ns", I (tot (fun a -> total_ns a slot)));
          ] ))

let write_chain path op =
  let oc = open_out path in
  let recs = Array.to_list op.accs |> List.concat_map (fun a -> a.chain) in
  let recs = List.sort compare recs in
  let slot_name s =
    if s = send_slot then "send"
    else if s = recv_slot then "recv"
    else Event.cls_name (List.nth Event.all_classes s)
  in
  output_string oc
    (json_string
       (L
          (List.map
             (fun (uid, slot, entity, sim, t0, dt) ->
               O
                 [
                   ("uid", I uid);
                   ("layer", S (slot_name slot));
                   ("entity", I entity);
                   ("sim_ps", I sim);
                   ("start_ns", I t0);
                   ("dur_ns", I dt);
                 ])
             recs)));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and trace = ref false and trace_out = ref "" in
  let reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fabric-1shard | fabric-2shard | switch-bursts");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set trace, " wrap handlers and sends in spans and calibrate the ledger");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the sampled packet span chains here");
      ("--reference", Arg.Set reference, " print the host-speed reference time in ns and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N [--trace [--trace-out FILE]] | --reference";
  if !reference then begin
    Printf.printf "%d\n" (reference_ns ());
    exit 0
  end;
  let op = run_op ~workload:(workload_of_string !workload) ~seed:!seed ~trace:!trace in
  let r = op.result in
  let c = counts op in
  let get k = match List.assoc k c with I v -> v | _ -> assert false in
  let books_ok =
    get "offered" = get "host_sent"
    && get "offered" = get "delivered" + get "drops" + get "in_flight"
    && get "offered" > 0
  in
  let traced =
    if not !trace then []
    else begin
      if !trace_out <> "" then write_chain !trace_out op;
      [ ("spans", O (spans op)); ("calibration", O (calibrate op)) ]
    end
  in
  print_endline
    (json_string
       (O
          ([
             ("workload", S !workload);
             ("seed", I !seed);
             ("shards", I op.shards);
             ("setup_s", F (secs op.setup_ns));
             ("topology_s", F (secs op.topology_ns));
             ("wiring_s", F (secs op.wiring_ns));
             ("sources_s", F (secs op.sources_ns));
             ("run_s", F (secs op.run_ns));
             ("sim_wall_s", F r.Parsim.wall_s);
             ("cpu_s", F op.cpu_run_s);
             ("minor_words", F op.minor_words);
             ("major_collections", I op.major_collections);
             ("books_ok", B books_ok);
             ("arrival_digest", S r.Parsim.arrival_digest);
             ("metrics_digest", S (Digest.to_hex (Digest.string r.Parsim.metrics_json)));
             ("counts", O c);
           ]
          @ traced)))
