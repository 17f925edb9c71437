(* E14 — §3 In-Network Computing: NetCache-style caching with
   timer-driven statistics decay.

   Clients issue Zipf GETs through the switch to a key-value server;
   the switch caches hot keys. Halfway through, the hot set shifts.
   With timer events the popularity sketch is cleared periodically and
   idle cache entries age out, so the cache re-converges onto the new
   hot set; the static variant keeps stale statistics (old keys
   re-promote forever) and its hit ratio collapses after the shift —
   exactly the adaptation the NetCache authors said timers would
   buy. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host

let key_space = 500
let shift_at = Sim_time.ms 5
let stop_at = Sim_time.ms 10
let request_rate = 500_000.
let server_port = 3

type variant_result = {
  variant : string;
  phase1_hit_ratio : float;
  phase2_hit_ratio : float;
  server_requests_phase1 : int;
  server_requests_phase2 : int;
  promotions : int;
  evictions : int;
}

type result = { with_timers : variant_result; static : variant_result }

let client_port_of pkt =
  match pkt.Packet.ip with
  | Some ip -> Netcore.Ipv4_addr.to_int ip.Netcore.Ipv4.dst land 0xffff mod 3
  | None -> 0

let run_variant ~seed ~with_timers variant =
  let arch = if with_timers then Arch.event_pisa_full else Arch.baseline_psa in
  let spec, app =
    Apps.Netcache.program ~cache_size:32 ~promote_threshold:8
      ~decay_period:(Sim_time.ms 1) ~idle_windows:2 ~with_timers ~server_port
      ~client_port:client_port_of ()
  in
  let server_requests = ref 0 in
  let p1 = ref (0, 0, 0) in
  let on_shard (ctx : Parsim.shard_ctx) =
    let sw = List.assoc 0 ctx.switches in
    (* Server host: answers every GET. *)
    Host.set_receiver (List.assoc 0 ctx.hosts) (fun h pkt ->
        match pkt.Packet.payload with
        | Apps.Netcache.Kv_get { key } ->
            incr server_requests;
            let reply =
              Packet.udp_packet
                ~src:(Netcore.Ipv4_addr.host ~subnet:9 1)
                ~dst:(match pkt.Packet.ip with
                     | Some ip -> ip.Netcore.Ipv4.src
                     | None -> Netcore.Ipv4_addr.host ~subnet:3 0)
                ~src_port:11_211 ~dst_port:10_000 ~payload_len:64 ()
            in
            reply.Packet.payload <- Apps.Netcache.Kv_reply { key; from_cache = false };
            Host.send h reply
        | _ -> ());
    for p = 0 to 2 do
      Event_switch.set_port_tx sw ~port:p (fun _ -> ())
    done;
    (* Zipf request stream; hot set shifts at [shift_at]. *)
    let rng = Stats.Rng.create ~seed in
    let zipf = Stats.Dist.zipf ~n:key_space ~alpha:1.05 in
    let rec arrivals time acc =
      if time >= stop_at then List.rev acc
      else
        let gap = max 1 (int_of_float (Stats.Dist.exponential rng ~rate:request_rate *. 1e12)) in
        let time = time + gap in
        let rank = Stats.Dist.zipf_draw rng zipf in
        let key = if time < shift_at then rank else 1000 + rank in
        let client = Stats.Rng.int rng 3 in
        arrivals time ((time, client, key) :: acc)
    in
    List.iter
      (fun (time, client, key) ->
        Scheduler.post ctx.sched ~at:time (fun () ->
            Event_switch.inject sw ~port:client (Apps.Netcache.get_packet ~client ~key)))
      (arrivals 0 []);
    (* Sample counters at the phase boundary. *)
    Scheduler.post ctx.sched ~at:shift_at (fun () ->
        p1 := (Apps.Netcache.cache_hits app, Apps.Netcache.cache_misses app, !server_requests))
  in
  ignore
    (Parsim.run
       (Parsim.config ~until:(stop_at + Sim_time.ms 1)
          ~switch_config:(fun _ -> Event_switch.default_config arch)
          ~program:(fun _ -> spec) ~on_shard ())
       (* The key-value server is host 0. *)
       (Evcore.Topology.make ~switches:1 ~links:[] ~hosts:[ (0, server_port) ])
      : Parsim.result);
  let h1, m1, s1 = !p1 in
  let h2 = Apps.Netcache.cache_hits app - h1 in
  let m2 = Apps.Netcache.cache_misses app - m1 in
  let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
  {
    variant;
    phase1_hit_ratio = ratio h1 m1;
    phase2_hit_ratio = ratio h2 m2;
    server_requests_phase1 = s1;
    server_requests_phase2 = !server_requests - s1;
    promotions = Apps.Netcache.promotions app;
    evictions = Apps.Netcache.evictions app;
  }

let run ?(seed = 42) () =
  {
    with_timers = run_variant ~seed ~with_timers:true "timer decay + aging";
    static = run_variant ~seed ~with_timers:false "static (no timers)";
  }

let print r =
  Report.section "E14 / §3 — NetCache-style caching: adapting to a workload shift";
  Report.kv "workload"
    (Printf.sprintf "Zipf(1.05) over %d keys at %.0fk req/s; hot set replaced at %s" key_space
       (request_rate /. 1000.) (Report.time_ps shift_at));
  Report.blank ();
  let row v =
    [
      v.variant;
      Report.pct (100. *. v.phase1_hit_ratio);
      Report.pct (100. *. v.phase2_hit_ratio);
      string_of_int v.server_requests_phase1;
      string_of_int v.server_requests_phase2;
      string_of_int v.promotions;
      string_of_int v.evictions;
    ]
  in
  Report.table
    ~headers:
      [ "variant"; "hit p1"; "hit p2"; "srv reqs p1"; "srv reqs p2"; "promos"; "evicts" ]
    ~rows:[ row r.with_timers; row r.static ];
  Report.blank ();
  Report.kv "similar hit ratio before the shift"
    (if Float.abs (r.with_timers.phase1_hit_ratio -. r.static.phase1_hit_ratio) < 0.15 then
       "PASS"
     else "FAIL");
  Report.kv "timers keep the cache useful after the shift"
    (if r.with_timers.phase2_hit_ratio > r.static.phase2_hit_ratio +. 0.1 then "PASS" else "FAIL");
  Report.kv "timers reduce server load after the shift"
    (if r.with_timers.server_requests_phase2 < r.static.server_requests_phase2 then "PASS"
     else "FAIL")

let name = "netcache"
