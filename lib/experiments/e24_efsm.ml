(* E24 — per-flow EFSM externs: state-access contention under flow
   skew, and sharded conformance of stateful programs.

   Part A reproduces the bottleneck OPP (Bianchi et al.) centres its
   design on: a per-flow state machine is a read-modify-write loop over
   single-ported memory, so two hits on the same flow within the
   pipeline's RMW latency cannot both be served — the second stalls.
   Back-to-back line-rate arrivals are driven through a stateful
   firewall under three key distributions (uniform single-hit, Zipf
   0.9, Zipf 1.3); uniform single-hit flows never revisit a context,
   so its stall count must be exactly zero, while Zipf skew
   concentrates hits on hot flows inside the contention window.

   Part B is the determinism tentpole extended to stateful processing:
   both EFSM apps (SYN→established→closed firewall, per-flow rate
   enforcer with broadcast window resets) run on a ring under Parsim
   at 1/2/4 shards; merged traces and merged metrics — which include
   the per-switch pisa.efsm.* series and a state-evolution digest —
   must be byte-identical to the sequential run. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Arch = Evcore.Arch
module Efsm = Pisa.Efsm

let name = "efsm"

(* ------------------------------------------------------------------ *)
(* Part A — contention vs flow skew on a single switch                 *)

type skew_row = {
  workload : string;
  packets : int;
  flows : int;
  steps : int;
  stalls : int;
  stall_frac : float;
  occupancy : int;
}

let mk_flow_pkt ~key ~flags =
  Packet.tcp_packet ~flags
    ~src:(Ipv4_addr.of_octets 10 1 (key lsr 8) (key land 0xff))
    ~dst:(Ipv4_addr.of_octets 10 2 0 1) ~src_port:(1 + (key land 0x7fff)) ~dst_port:80
    ~payload_len:64 ()

(* Back-to-back injection: one packet per pipeline cycle, the line-rate
   arrival pattern under which same-flow revisits land inside the RMW
   window. [key_at i] picks the flow of the i-th packet; the first
   packet of each flow is a SYN, the rest data. *)
let contention_run ?metrics ~label ~packets ~key_at () =
  let sched = Scheduler.create () in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let spec, fw =
    Apps.Stateful_fw.program ~slots:1024 ~timeout:(Sim_time.us 500) ~out_port:(fun _ -> 1) ()
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> ());
  let seen = Hashtbl.create 1024 in
  let flows = ref 0 in
  for i = 0 to packets - 1 do
    let key = key_at i in
    let flags =
      if Hashtbl.mem seen key then Netcore.Tcp.flag_ack
      else begin
        Hashtbl.replace seen key ();
        incr flows;
        Netcore.Tcp.flag_syn
      end
    in
    let at = Sim_time.ns 100 + (i * Pisa.Pipeline.default_clock_period) in
    Scheduler.post sched ~at (fun () -> Event_switch.inject sw ~port:0 (mk_flow_pkt ~key ~flags))
  done;
  Scheduler.run ~until:(Sim_time.us 200) sched;
  let e = Apps.Stateful_fw.efsm fw in
  (match metrics with
  | None -> ()
  | Some reg -> Event_switch.export_metrics ~labels:[ ("workload", label) ] sw reg);
  {
    workload = label;
    packets;
    flows = !flows;
    steps = Efsm.steps e;
    stalls = Efsm.stalls e;
    stall_frac = (if Efsm.steps e = 0 then 0. else float_of_int (Efsm.stalls e) /. float_of_int (Efsm.steps e));
    occupancy = Efsm.occupancy e;
  }

let contention ?metrics ~seed () =
  let packets = 2048 in
  let zipf ~alpha =
    let rng = Stats.Rng.create ~seed in
    let z = Stats.Dist.zipf ~n:256 ~alpha in
    let keys = Array.init packets (fun _ -> Stats.Dist.zipf_draw rng z) in
    fun i -> keys.(i)
  in
  [
    (* Every packet its own flow: no context is ever revisited, so the
       contention model must stay perfectly silent. *)
    contention_run ?metrics ~label:"uniform-1hit" ~packets ~key_at:(fun i -> i) ();
    contention_run ?metrics ~label:"zipf-0.9" ~packets ~key_at:(zipf ~alpha:0.9) ();
    contention_run ?metrics ~label:"zipf-1.3" ~packets ~key_at:(zipf ~alpha:1.3) ();
  ]

(* ------------------------------------------------------------------ *)
(* Part B — sharded conformance of both EFSM apps                      *)

type app = Fw | Rate

let apps = [ Fw; Rate ]
let app_label = function Fw -> "fw" | Rate -> "rate"

let switches = 8
let topo () = Topology.ring ~switches ()
let addr_of_host h = Ipv4_addr.of_octets 10 0 0 h
let host_of_addr a = Ipv4_addr.to_int a land 0xff

let route ~sw pkt =
  match pkt.Packet.ip with
  | Some ip -> Topology.ring_route ~switches ~sw ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst)
  | None -> 0

let program app sw : Evcore.Program.spec =
  match app with
  | Fw ->
      fst
        (Apps.Stateful_fw.program ~slots:256 ~timeout:(Sim_time.us 150)
           ~out_port:(fun pkt -> route ~sw pkt)
           ())
  | Rate ->
      fst
        (Apps.Flow_enforcer.program ~slots:256 ~window:(Sim_time.us 50) ~limit_bytes:2000
           ~out_port:(fun pkt -> route ~sw pkt)
           ())

let switch_config ~seed sw =
  let cfg = Event_switch.default_config Arch.event_pisa_full in
  { cfg with Event_switch.seed = seed + (31 * sw) }

let mk_pkt ~src_host ~dst_host ~sport ~payload_len =
  Packet.udp_packet ~src:(addr_of_host src_host) ~dst:(addr_of_host dst_host) ~src_port:sport
    ~dst_port:(5000 + dst_host) ~payload_len ()

let mk_tcp_pkt ~src_host ~dst_host ~sport ~flags ~payload_len =
  Packet.tcp_packet ~flags ~src:(addr_of_host src_host) ~dst:(addr_of_host dst_host)
    ~src_port:sport ~dst_port:(5000 + dst_host) ~payload_len ()

(* Firewall workload: each host runs short SYN / data / FIN sessions to
   a peer across the ring, plus stray never-SYN'd data packets that the
   first-hop firewall must block (guard misses). Times carry per-host
   seeded jitter so the seed shapes the trace. *)
let fw_traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 100 in
  if stop <= 0 then invalid_arg "E24: until must exceed the 100 us drain margin";
  List.iter
    (fun (h, host) ->
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      let dst = (h + 3) mod switches in
      let send_at at flags sport =
        if at < stop then
          Scheduler.post ctx.Parsim.sched ~at (fun () ->
              Host.send host
                (mk_tcp_pkt ~src_host:h ~dst_host:dst ~sport ~flags ~payload_len:128))
      in
      for session = 0 to 2 do
        let sport = 4000 + (16 * h) + session in
        let base = Sim_time.us (20 + (70 * session)) + Sim_time.ns (Stats.Rng.int rng 4000) in
        send_at base Netcore.Tcp.flag_syn sport;
        for d = 1 to 5 do
          send_at
            (base + Sim_time.us (2 * d) + Sim_time.ns (Stats.Rng.int rng 500))
            Netcore.Tcp.flag_ack sport
        done;
        send_at (base + Sim_time.us 14) Netcore.Tcp.flag_fin sport;
        (* A stray ACK on a port that never saw a SYN. *)
        send_at
          (base + Sim_time.us (3 + Stats.Rng.int rng 8))
          Netcore.Tcp.flag_ack (sport + 8)
      done)
    ctx.Parsim.hosts

(* Enforcer workload: even hosts stream fast enough to blow the
   per-window byte budget and get throttled; odd hosts stay conformant. *)
let rate_traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 100 in
  if stop <= 0 then invalid_arg "E24: until must exceed the 100 us drain margin";
  List.iter
    (fun (h, host) ->
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      let dst = (h + 1) mod switches in
      let gap = if h mod 2 = 0 then Sim_time.us 4 else Sim_time.us 20 in
      let n = (stop - Sim_time.us 20) / gap in
      for i = 0 to min n 400 do
        let at = Sim_time.us 20 + (i * gap) + Sim_time.ns (Stats.Rng.int rng 300) in
        if at < stop then
          Scheduler.post ctx.Parsim.sched ~at (fun () ->
              Host.send host (mk_pkt ~src_host:h ~dst_host:dst ~sport:(4000 + h) ~payload_len:228))
      done)
    ctx.Parsim.hosts

let scenario app ?(shards = 1) ?(record_trace = true) ~seed ~until () =
  Parsim.config ~shards ~record_trace ~until
    ~switch_config:(switch_config ~seed)
    ~program:(program app)
    ~on_shard:(fun ctx ->
      match app with
      | Fw -> fw_traffic ~seed ~until ctx
      | Rate -> rate_traffic ~seed ~until ctx)
    ()

(* Shared by gen_golden.exe and the conformance suite so the golden
   scenario cannot drift from the tested one: one trace and one metrics
   digest per app. *)
let golden_until = Sim_time.us 400

let golden =
  {
    Conformance.name = "e24";
    seeds = [ 42; 7 ];
    (* Every count the ring of 8 admits, up to one switch per shard. *)
    shards = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    topo;
    legs =
      (fun ~shards ~seed ->
        List.map
          (fun app -> (Some (app_label app), scenario app ~shards ~seed ~until:golden_until ()))
          apps);
  }

(* ------------------------------------------------------------------ *)

type result = {
  seed : int;
  until : Sim_time.t;
  skew : skew_row list;
  runs : (string * unit Conformance.run list) list;
  all_conformant : bool;
  uniform_stalls : int;
  zipf_stalls : int;
}

let efsm_series = [ "pisa.efsm.steps"; "pisa.efsm.state_hash" ]

let run ?metrics ?(seed = 42) ?shard_counts ?(until = Sim_time.us 400) () =
  let skew = contention ?metrics ~seed () in
  let topo = topo () in
  let runs =
    List.map
      (fun app ->
        let runs =
          Conformance.sweep ?shard_counts topo (fun ~shards ->
              (scenario app ~shards ~seed ~until (), ()))
        in
        (match metrics with
        | None -> ()
        | Some reg ->
            List.iter
              (fun (v : unit Conformance.run) ->
                let labels = [ ("app", app_label app); ("shards", string_of_int v.shards) ] in
                Obs.Metrics.Counter.set
                  (Obs.Metrics.counter reg ~labels "e24.events")
                  v.result.events)
              runs);
        (app_label app, runs))
      apps
  in
  let stalls_of label =
    match List.find_opt (fun r -> r.workload = label) skew with
    | Some r -> r.stalls
    | None -> 0
  in
  {
    seed;
    until;
    skew;
    runs;
    all_conformant = List.for_all (fun (_, rs) -> Conformance.all_conformant rs) runs;
    uniform_stalls = stalls_of "uniform-1hit";
    zipf_stalls = stalls_of "zipf-1.3";
  }

let print r =
  Report.section "E24 / per-flow EFSM externs — contention and conformance";
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.until);
  Report.blank ();
  Report.note "state-access contention under flow skew (one packet per cycle):";
  Report.table
    ~headers:[ "workload"; "pkts"; "flows"; "steps"; "stalls"; "stall frac"; "occupancy" ]
    ~rows:
      (List.map
         (fun s ->
           [
             s.workload;
             string_of_int s.packets;
             string_of_int s.flows;
             string_of_int s.steps;
             string_of_int s.stalls;
             Report.pct (100. *. s.stall_frac);
             string_of_int s.occupancy;
           ])
         r.skew);
  Report.blank ();
  Report.note "sharded conformance of stateful apps (ring of 8):";
  Report.table
    ~headers:[ "app"; "shards"; "events"; "rx"; "efsm metrics"; "trace"; "conform" ]
    ~rows:
      (List.concat_map
         (fun (app, runs) ->
           List.map
             (fun (v : unit Conformance.run) ->
               [
                 app;
                 string_of_int v.shards;
                 string_of_int v.result.events;
                 string_of_int (Array.fold_left ( + ) 0 v.result.host_received);
                 (if Conformance.exports v.result efsm_series then "exported" else "MISSING");
                 Conformance.short "trace" v;
                 (if v.conformant then "ok" else "DIVERGED");
               ])
             runs)
         r.runs);
  Report.blank ();
  Report.kv "uniform single-hit stalls (must be 0)" (string_of_int r.uniform_stalls);
  Report.kv "zipf-1.3 stalls (must be > 0)" (string_of_int r.zipf_stalls);
  Report.kv "merged trace and metrics identical across shard counts"
    (if r.all_conformant then "PASS" else "FAIL")
