module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Program = Evcore.Program
module Event = Devents.Event
module Cms = Pisa.Cms

type Packet.payload +=
  | Kv_get of { key : int }
  | Kv_reply of { key : int; from_cache : bool }

type entry = { mutable last_hit_window : int; mutable hits : int }

type t = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable promotions : int;
  mutable evictions : int;
  cache : (int, entry) Hashtbl.t;
}

let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses

let hit_ratio t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_hits /. float_of_int total

let cached_keys t = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.cache [])
let promotions t = t.promotions
let evictions t = t.evictions

let get_packet ~client ~key =
  let pkt =
    Packet.udp_packet
      ~src:(Ipv4_addr.host ~subnet:3 client)
      ~dst:(Ipv4_addr.host ~subnet:9 1)
      ~src_port:(10_000 + client) ~dst_port:11_211 ~payload_len:16 ()
  in
  pkt.Packet.payload <- Kv_get { key };
  pkt

let program ?(cache_size = 64) ?(promote_threshold = 8) ?(decay_period = Eventsim.Sim_time.ms 1)
    ?(idle_windows = 4) ~with_timers ~server_port ~client_port () =
  let t =
    {
      cache_hits = 0;
      cache_misses = 0;
      promotions = 0;
      evictions = 0;
      cache = Hashtbl.create 64;
    }
  in
  let spec ctx =
    let popularity =
      Cms.create ~alloc:ctx.Program.alloc ~name:"netcache_pop" ~width:512 ~depth:2
        ~counter_bits:16 ()
    in
    (* Cache membership is an exact-match table plus per-entry aging state. *)
    let membership = Pisa.Match_table.exact ~name:"netcache_cache" in
    let window = ref 0 in
    let evict_lru () =
      let victim =
        Hashtbl.fold
          (fun key entry acc ->
            match acc with
            | Some (_, best) when best.last_hit_window <= entry.last_hit_window -> acc
            | Some _ | None -> Some (key, entry))
          t.cache None
      in
      match victim with
      | Some (key, _) ->
          Hashtbl.remove t.cache key;
          Pisa.Match_table.remove_exact membership ~key;
          t.evictions <- t.evictions + 1
      | None -> ()
    in
    let promote key =
      if Hashtbl.length t.cache >= cache_size then evict_lru ();
      Hashtbl.replace t.cache key { last_hit_window = !window; hits = 0 };
      Pisa.Match_table.add_exact membership ~key ();
      t.promotions <- t.promotions + 1
    in
    if with_timers then ignore (ctx.Program.add_timer ~period:decay_period);
    let ingress _ctx pkt =
      match pkt.Packet.payload with
      | Kv_get { key } -> (
          match Pisa.Match_table.lookup membership key with
          | Some () ->
              t.cache_hits <- t.cache_hits + 1;
              (match Hashtbl.find_opt t.cache key with
              | Some entry ->
                  entry.last_hit_window <- !window;
                  entry.hits <- entry.hits + 1
              | None -> ());
              pkt.Packet.payload <- Kv_reply { key; from_cache = true };
              Program.Forward pkt.Packet.meta.Packet.ingress_port
          | None ->
              t.cache_misses <- t.cache_misses + 1;
              Cms.update popularity ~key ~delta:1;
              if
                Cms.query popularity ~key >= promote_threshold
                && not (Hashtbl.mem t.cache key)
              then promote key;
              Program.Forward server_port)
      | Kv_reply _ -> Program.Forward (client_port pkt)
      | _ -> Program.Forward server_port
    in
    let timer =
      if with_timers then
        Some
          (fun _ctx (_ev : Event.timer_event) ->
            incr window;
            (* Clear popularity statistics (NetCache: "quickly clear
               all statistics") and age out idle cache entries. *)
            Cms.reset popularity;
            let stale =
              Hashtbl.fold
                (fun key entry acc ->
                  if !window - entry.last_hit_window > idle_windows then key :: acc else acc)
                t.cache []
            in
            List.iter
              (fun key ->
                Hashtbl.remove t.cache key;
                Pisa.Match_table.remove_exact membership ~key;
                t.evictions <- t.evictions + 1)
              stale)
      else None
    in
    Program.make ~name:(if with_timers then "netcache-timers" else "netcache-static") ~ingress
      ?timer ()
  in
  (spec, t)
