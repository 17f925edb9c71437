(* NetCache-style in-network key-value caching with timer-driven
   statistics decay: the cache follows the workload when the hot key
   set shifts.

   Run with: dune exec examples/netcache_demo.exe *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host

let () =
  let spec, cache =
    Apps.Netcache.program ~cache_size:16 ~promote_threshold:5 ~decay_period:(Sim_time.ms 1)
      ~idle_windows:2 ~with_timers:true ~server_port:3
      ~client_port:(fun _ -> 0) ()
  in
  let server_load = ref 0 in
  let on_shard (ctx : Parsim.shard_ctx) =
    let sw = List.assoc 0 ctx.switches in
    Event_switch.set_port_tx sw ~port:0 (fun _ -> ());
    (* The key-value server behind port 3. *)
    Host.set_receiver (List.assoc 0 ctx.hosts) (fun h pkt ->
        match pkt.Packet.payload with
        | Apps.Netcache.Kv_get { key } ->
            incr server_load;
            let reply =
              Packet.udp_packet
                ~src:(Netcore.Ipv4_addr.host ~subnet:9 1)
                ~dst:(Netcore.Ipv4_addr.host ~subnet:3 0)
                ~src_port:11_211 ~dst_port:10_000 ~payload_len:64 ()
            in
            reply.Packet.payload <- Apps.Netcache.Kv_reply { key; from_cache = false };
            Host.send h reply
        | _ -> ());
    (* Zipf GET stream; the hot set shifts by +1000 at 4 ms. *)
    let rng = Stats.Rng.create ~seed:7 in
    let zipf = Stats.Dist.zipf ~n:200 ~alpha:1.2 in
    for i = 0 to 3999 do
      let at = i * Sim_time.us 2 in
      ignore
        (Scheduler.schedule ctx.sched ~at (fun () ->
             let rank = Stats.Dist.zipf_draw rng zipf in
             let key = if at < Sim_time.ms 4 then rank else 1000 + rank in
             Event_switch.inject sw ~port:0 (Apps.Netcache.get_packet ~client:0 ~key)))
    done
  in
  ignore
    (Parsim.run
       (Parsim.config ~until:(Sim_time.ms 8 + Sim_time.ms 1)
          ~switch_config:(fun _ -> Event_switch.default_config Evcore.Arch.event_pisa_full)
          ~program:(fun _ -> spec) ~on_shard ())
       (Evcore.Topology.make ~switches:1 ~links:[] ~hosts:[ (0, 3) ])
      : Parsim.result);
  Format.printf "hit ratio:   %.1f%%@." (100. *. Apps.Netcache.hit_ratio cache);
  Format.printf "server load: %d of 4000 requests@." !server_load;
  Format.printf "promotions:  %d, evictions: %d@." (Apps.Netcache.promotions cache)
    (Apps.Netcache.evictions cache);
  Format.printf "cached keys now (new hot set is 1001+): %s@."
    (String.concat ", " (List.map string_of_int (Apps.Netcache.cached_keys cache)))
