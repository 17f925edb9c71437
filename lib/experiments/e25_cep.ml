(* E25 — in-network complex-event processing on the EFSM extern.

   Part A measures detection quality of the two compiled CEP detectors
   on a single switch. A SYN-signature detector (within-window count of
   connection-opening SYNs per victim) faces injected attack bursts
   over Zipf-skewed organic traffic: we report detection latency per
   attack and the false-alarm rate the skewed background induces. A
   burst-forensics detector (occupancy ramp followed by an overflow,
   per port) faces engineered microbursts against a shallow queue and
   must name the afflicted port.

   Part B extends the determinism tentpole to compiled patterns: both
   detector apps run on a ring under Parsim at 1/2/4 shards, and a
   chaos leg crashes the SYN detector's ingress handler on every
   switch under the Quarantine policy with merger shedding armed — the
   detectors must recover, and merged traces/metrics (which pin every
   automaton's state evolution via pisa.efsm.state_hash) must stay
   byte-identical to the sequential run. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Arch = Evcore.Arch

let name = "cep"

(* ------------------------------------------------------------------ *)
(* Part A1 — SYN-flood detection quality on a single switch            *)

type flood_quality = {
  attacks : int;
  detected : int;
  latencies_us : float list;  (** one per detected attack, attack order *)
  alarms : int;
  false_alarms : int;
  fp_rate : float;  (** false alarms / alarms *)
  background_syns : int;
}

let flood_syns = 16
let flood_window = Sim_time.us 100
let flood_tick = Sim_time.us 10

let client_addr c = Ipv4_addr.of_octets 10 8 0 c
let service_addr d = Ipv4_addr.of_octets 10 9 0 d

let syn_pkt ~src ~dst ~sport =
  Packet.tcp_packet ~flags:Netcore.Tcp.flag_syn ~src ~dst ~src_port:sport ~dst_port:80
    ~payload_len:0 ()

let ack_pkt ~src ~dst ~sport =
  Packet.tcp_packet ~flags:Netcore.Tcp.flag_ack ~src ~dst ~src_port:sport ~dst_port:80
    ~payload_len:128 ()

let flood_quality ?metrics ~seed () =
  let sched = Scheduler.create () in
  let alarm_log = ref [] in
  let spec, _det =
    Apps.Syn_signature.program ~slots:256 ~syns:flood_syns ~window:flood_window
      ~tick_period:flood_tick
      ~on_match:(fun ~key ~time -> alarm_log := (key, time) :: !alarm_log)
      ~out_port:(fun _ -> 1) ()
  in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let config = { config with Event_switch.seed } in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  for p = 0 to 3 do
    Event_switch.set_port_tx sw ~port:p (fun _ -> ())
  done;
  (* Organic background: Zipf-skewed destinations, so the hot service
     legitimately accumulates SYNs — the false-positive pressure. *)
  let rng = Stats.Rng.create ~seed in
  let zipf = Stats.Dist.zipf ~n:32 ~alpha:1.1 in
  let background_syns = ref 0 in
  for _session = 0 to 299 do
    let c = Stats.Rng.int rng 32 in
    let d = Stats.Dist.zipf_draw rng zipf in
    let sport = 1024 + Stats.Rng.int rng 30000 in
    let base = Sim_time.us (5 + Stats.Rng.int rng 340) in
    incr background_syns;
    Scheduler.post sched ~at:base (fun () ->
        Event_switch.inject sw ~port:0 (syn_pkt ~src:(client_addr c) ~dst:(service_addr d) ~sport));
    for a = 1 to 2 do
      Scheduler.post sched
        ~at:(base + Sim_time.us (3 * a))
        (fun () ->
          Event_switch.inject sw ~port:0 (ack_pkt ~src:(client_addr c) ~dst:(service_addr d) ~sport))
    done
  done;
  (* Attack bursts: 24 spoofed-source SYNs in ~24 us at two victims. *)
  let attacks = [ (Sim_time.us 120, 40); (Sim_time.us 250, 41) ] in
  List.iter
    (fun (start, victim) ->
      for i = 0 to 23 do
        Scheduler.post sched
          ~at:(start + (i * Sim_time.us 1))
          (fun () ->
            Event_switch.inject sw ~port:1
              (syn_pkt ~src:(client_addr (i land 15)) ~dst:(service_addr victim)
                 ~sport:(20000 + (victim * 64) + i)))
      done)
    attacks;
  Scheduler.run ~until:(Sim_time.us 420) sched;
  let alarms = List.rev !alarm_log in
  let victim_keys =
    List.map (fun (_, v) -> Ipv4_addr.to_int (service_addr v) land max_int) attacks
  in
  let latencies_us =
    List.filter_map
      (fun (start, victim) ->
        let key = Ipv4_addr.to_int (service_addr victim) land max_int in
        match List.find_opt (fun (k, t) -> k = key && t >= start) alarms with
        | Some (_, t) -> Some (float_of_int (t - start) /. float_of_int (Sim_time.us 1))
        | None -> None)
      attacks
  in
  let false_alarms =
    List.length (List.filter (fun (k, _) -> not (List.mem k victim_keys)) alarms)
  in
  (match metrics with
  | None -> ()
  | Some reg -> Event_switch.export_metrics ~labels:[ ("part", "flood") ] sw reg);
  {
    attacks = List.length attacks;
    detected = List.length latencies_us;
    latencies_us;
    alarms = List.length alarms;
    false_alarms;
    fp_rate =
      (if alarms = [] then 0.
       else float_of_int false_alarms /. float_of_int (List.length alarms));
    background_syns = !background_syns;
  }

(* ------------------------------------------------------------------ *)
(* Part A2 — microburst forensics against a shallow queue              *)

type burst_quality = {
  bursts_injected : int;
  bursts_detected : int;
  culprit_ports : int list;
  culprit_correct : bool;  (** every report names the flooded port *)
  overflow_drops : int;
}

let burst_quality ?metrics ~seed () =
  let sched = Scheduler.create () in
  let spec, det =
    Apps.Burst_forensics.program ~slots:64 ~ramp:4 ~depth:4 ~window:(Sim_time.us 50)
      ~tick_period:(Sim_time.us 5)
      ~out_port:(fun _ -> 2)
      ()
  in
  let config = Event_switch.default_config Arch.event_pisa_full in
  let config =
    {
      config with
      Event_switch.seed;
      tm_config =
        {
          config.Event_switch.tm_config with
          Tmgr.Traffic_manager.queue_limit_bytes = Some 4096;
        };
    }
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  for p = 0 to 3 do
    Event_switch.set_port_tx sw ~port:p (fun _ -> ())
  done;
  let bursts_injected = 2 in
  for b = 0 to bursts_injected - 1 do
    (* 60 packets back-to-back at 40 ns spacing: ~50 Gb/s offered into
       a 10 Gb/s port with a 4 KiB queue cap — ramp, then loss. *)
    for i = 0 to 59 do
      Scheduler.post sched
        ~at:(Sim_time.us (40 + (120 * b)) + (i * Sim_time.ns 40))
        (fun () ->
          Event_switch.inject sw ~port:(i land 1)
            (Packet.tcp_packet ~flags:Netcore.Tcp.flag_ack
               ~src:(client_addr (b + 1))
               ~dst:(service_addr 1) ~src_port:(3000 + i) ~dst_port:80 ~payload_len:200 ()))
    done
  done;
  Scheduler.run ~until:(Sim_time.us 400) sched;
  let ports = Apps.Burst_forensics.culprit_ports det in
  (match metrics with
  | None -> ()
  | Some reg -> Event_switch.export_metrics ~labels:[ ("part", "burst") ] sw reg);
  {
    bursts_injected;
    bursts_detected = Apps.Burst_forensics.bursts det;
    culprit_ports = ports;
    culprit_correct = ports <> [] && List.for_all (fun p -> p = 2) ports;
    overflow_drops = Tmgr.Traffic_manager.drops (Event_switch.tm sw);
  }

(* ------------------------------------------------------------------ *)
(* Part B — sharded conformance, plus the chaos leg                    *)

type app = Syn | Burst

let apps = [ Syn; Burst ]
let app_label = function Syn -> "syn" | Burst -> "burst"

let switches = 8
let topo () = Topology.ring ~switches ()
let addr_of_host h = Ipv4_addr.of_octets 10 0 0 h
let host_of_addr a = Ipv4_addr.to_int a land 0xff

let route ~sw pkt =
  match pkt.Packet.ip with
  | Some ip -> Topology.ring_route ~switches ~sw ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst)
  | None -> 0

(* Per-run alarm sink: [scenario] threads it into every switch's
   on_match so single-shard runs can observe detector liveness (the
   chaos leg asserts the detectors keep matching through quarantine).
   Only read it from 1-shard runs. *)
let program ?alarms app sw : Evcore.Program.spec =
  let on_match ~key:_ ~time:_ = match alarms with None -> () | Some r -> incr r in
  match app with
  | Syn ->
      fst
        (Apps.Syn_signature.program ~slots:256 ~timeout:(Sim_time.us 200) ~syns:8
           ~window:(Sim_time.us 60) ~tick_period:(Sim_time.us 10) ~on_match
           ~out_port:(fun pkt -> route ~sw pkt)
           ())
  | Burst ->
      fst
        (Apps.Burst_forensics.program ~slots:64 ~ramp:3 ~depth:3 ~window:(Sim_time.us 40)
           ~tick_period:(Sim_time.us 10) ~on_match
           ~out_port:(fun pkt -> route ~sw pkt)
           ())

let switch_config ?(chaos = false) app ~seed sw =
  let cfg = Event_switch.default_config Arch.event_pisa_full in
  let cfg = { cfg with Event_switch.seed = seed + (31 * sw) } in
  let cfg =
    match app with
    | Syn -> cfg
    | Burst ->
        (* Shallow queues so ring congestion actually overflows. *)
        {
          cfg with
          Event_switch.tm_config =
            { cfg.Event_switch.tm_config with Tmgr.Traffic_manager.queue_limit_bytes = Some 2048 };
        }
  in
  if not chaos then cfg
  else
    {
      cfg with
      Event_switch.resil =
        {
          cfg.Event_switch.resil with
          Resil.Supervisor.policy = Resil.Policy.Quarantine;
          base_backoff = Sim_time.us 20;
          max_backoff = Sim_time.us 80;
        };
      shed_watermark = Some 8;
    }

let mk_tcp_pkt ~src_host ~dst_host ~sport ~flags ~payload_len =
  Packet.tcp_packet ~flags ~src:(addr_of_host src_host) ~dst:(addr_of_host dst_host)
    ~src_port:sport ~dst_port:(5000 + dst_host) ~payload_len ()

(* SYN-detector workload: organic sessions across the ring plus a
   coordinated flood — hosts 0, 2 and 4 each fire 12 quick SYNs at
   host 5, so first-hop and transit detectors all cross the per-victim
   threshold. Per-host seeded jitter shapes the trace. *)
let syn_traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 100 in
  if stop <= 0 then invalid_arg "E25: until must exceed the 100 us drain margin";
  List.iter
    (fun (h, host) ->
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      let dst = (h + 3) mod switches in
      let send_at at flags sport payload_len =
        if at < stop then
          Scheduler.post ctx.Parsim.sched ~at (fun () ->
              Host.send host (mk_tcp_pkt ~src_host:h ~dst_host:dst ~sport ~flags ~payload_len))
      in
      for session = 0 to 2 do
        let sport = 4000 + (16 * h) + session in
        let base = Sim_time.us (15 + (90 * session)) + Sim_time.ns (Stats.Rng.int rng 4000) in
        send_at base Netcore.Tcp.flag_syn sport 0;
        send_at (base + Sim_time.us 4) Netcore.Tcp.flag_ack sport 128;
        send_at (base + Sim_time.us 9) Netcore.Tcp.flag_ack sport 128
      done;
      if h mod 2 = 0 && h <= 4 then begin
        let base = Sim_time.us 130 + Sim_time.ns (Stats.Rng.int rng 2000) in
        for i = 0 to 11 do
          if base + (i * Sim_time.us 2) < stop then
            Scheduler.post ctx.Parsim.sched
              ~at:(base + (i * Sim_time.us 2))
              (fun () ->
                Host.send host
                  (mk_tcp_pkt ~src_host:h ~dst_host:5 ~sport:(7000 + (64 * h) + i)
                     ~flags:Netcore.Tcp.flag_syn ~payload_len:0))
        done
      end)
    ctx.Parsim.hosts

(* Burst-detector workload: even hosts fire back-to-back 24-packet
   bursts at their ring neighbour against the 2 KiB queue cap; odd
   hosts trickle. *)
let burst_traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 100 in
  if stop <= 0 then invalid_arg "E25: until must exceed the 100 us drain margin";
  List.iter
    (fun (h, host) ->
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      let dst = (h + 1) mod switches in
      if h mod 2 = 0 then
        for b = 0 to 1 do
          let base = Sim_time.us (30 + (110 * b) + (7 * h)) + Sim_time.ns (Stats.Rng.int rng 900) in
          for i = 0 to 23 do
            let at = base + (i * Sim_time.ns 60) in
            if at < stop then
              Scheduler.post ctx.Parsim.sched ~at (fun () ->
                  Host.send host
                    (mk_tcp_pkt ~src_host:h ~dst_host:dst ~sport:(4000 + h)
                       ~flags:Netcore.Tcp.flag_ack ~payload_len:200))
          done
        done
      else
        for i = 0 to 7 do
          let at = Sim_time.us (20 + (40 * i)) + Sim_time.ns (Stats.Rng.int rng 600) in
          if at < stop then
            Scheduler.post ctx.Parsim.sched ~at (fun () ->
                Host.send host
                  (mk_tcp_pkt ~src_host:h ~dst_host:dst ~sport:(4100 + h)
                     ~flags:Netcore.Tcp.flag_ack ~payload_len:128))
        done)
    ctx.Parsim.hosts

(* The chaos leg arms the supervisor against every switch's ingress
   handler (the SYN detector's hot path): the first invocation crashes,
   tripping a Quarantine with backoff, while merger shedding is live.
   One crash, not more — a first hop quarantined during the flood
   swallows it entirely, and the point here is recovery, not blindness.
   Armed per switch in on_shard, so the injection is identical at
   every shard count and the digests stay comparable. *)
let arm_chaos (ctx : Parsim.shard_ctx) =
  List.iter
    (fun (_, sw) ->
      Resil.Supervisor.inject_crash
        (Event_switch.handler_key sw Devents.Event.Ingress_packet)
        ~n:1)
    ctx.Parsim.switches

let scenario ?alarms ?(chaos = false) app ?(shards = 1) ?(record_trace = true) ~seed ~until
    () =
  Parsim.config ~shards ~record_trace ~until
    ~switch_config:(switch_config ~chaos app ~seed)
    ~program:(program ?alarms app)
    ~on_shard:(fun ctx ->
      if chaos then arm_chaos ctx;
      match app with
      | Syn -> syn_traffic ~seed ~until ctx
      | Burst -> burst_traffic ~seed ~until ctx)
    ()

(* Shared by gen_golden.exe and the conformance suite so the golden
   scenario cannot drift from the tested one: trace and metrics digests
   for each detector app plus the chaos leg. *)
let golden_until = Sim_time.us 400

let golden =
  {
    Conformance.name = "e25";
    seeds = [ 42; 7 ];
    (* Every count the ring of 8 admits, up to one switch per shard. *)
    shards = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    topo;
    legs =
      (fun ~shards ~seed ->
        let leg label ~chaos app =
          (Some label, scenario ~chaos app ~shards ~seed ~until:golden_until ())
        in
        [ leg "syn" ~chaos:false Syn; leg "burst" ~chaos:false Burst; leg "chaos" ~chaos:true Syn ]);
  }

(* ------------------------------------------------------------------ *)

type result = {
  seed : int;
  until : Sim_time.t;
  flood : flood_quality;
  burst : burst_quality;
  runs : (string * unit Conformance.run list) list;
  all_conformant : bool;
  chaos_alarms : int;  (** detector matches with crashes + shedding live *)
  chaos_conformant : bool;
}

let efsm_series = [ "pisa.efsm.steps"; "pisa.efsm.state_hash" ]

let run ?metrics ?(seed = 42) ?shard_counts ?(until = Sim_time.us 400) () =
  let flood = flood_quality ?metrics ~seed () in
  let burst = burst_quality ?metrics ~seed () in
  let topo = topo () in
  let runs =
    List.map
      (fun app ->
        ( app_label app,
          Conformance.sweep ?shard_counts topo (fun ~shards ->
              (scenario app ~shards ~seed ~until (), ())) ))
      apps
  in
  (* Chaos leg: the sequential run observes detector liveness through
     the alarm sink; the sweep pins determinism of the full
     crash/quarantine/shed recovery path. *)
  let alarms = ref 0 in
  let chaos =
    Conformance.sweep ?shard_counts topo (fun ~shards ->
        let alarms = if shards = 1 then Some alarms else None in
        (scenario ?alarms ~chaos:true Syn ~shards ~seed ~until (), ()))
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg "e25.flood.alarms") flood.alarms;
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg "e25.burst.detected") burst.bursts_detected;
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg "e25.chaos.alarms") !alarms);
  {
    seed;
    until;
    flood;
    burst;
    runs;
    all_conformant = List.for_all (fun (_, rs) -> Conformance.all_conformant rs) runs;
    chaos_alarms = !alarms;
    chaos_conformant = Conformance.all_conformant chaos;
  }

let print r =
  Report.section "E25 / in-network CEP — detection quality and conformance";
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.until);
  Report.blank ();
  Report.note
    (Printf.sprintf "SYN-flood detector (count %d SYNs within %s, per victim):" flood_syns
       (Report.time_ps flood_window));
  Report.kv "attacks detected"
    (Printf.sprintf "%d/%d" r.flood.detected r.flood.attacks);
  Report.kv "detection latency (us)"
    (match r.flood.latencies_us with
    | [] -> "n/a"
    | l -> String.concat ", " (List.map (Printf.sprintf "%.1f") l));
  Report.kv "alarms / false alarms"
    (Printf.sprintf "%d / %d" r.flood.alarms r.flood.false_alarms);
  Report.kv "false-positive rate" (Report.pct (100. *. r.flood.fp_rate));
  Report.kv "organic SYNs (Zipf 1.1 destinations)" (string_of_int r.flood.background_syns);
  Report.blank ();
  Report.note "microburst forensics (occupancy ramp then overflow, per port):";
  Report.kv "bursts injected / detected"
    (Printf.sprintf "%d / %d" r.burst.bursts_injected r.burst.bursts_detected);
  Report.kv "culprit ports"
    (String.concat ", " (List.map string_of_int r.burst.culprit_ports));
  Report.kv "culprit correct" (if r.burst.culprit_correct then "yes" else "NO");
  Report.kv "overflow drops" (string_of_int r.burst.overflow_drops);
  Report.blank ();
  Report.note "sharded conformance of compiled detectors (ring of 8):";
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
  Report.kv "chaos leg alarms (crashes + shedding live, must be > 0)"
    (string_of_int r.chaos_alarms);
  Report.kv "chaos leg conformant across shard counts"
    (if r.chaos_conformant then "PASS" else "FAIL");
  Report.kv "merged trace and metrics identical across shard counts"
    (if r.all_conformant then "PASS" else "FAIL")
