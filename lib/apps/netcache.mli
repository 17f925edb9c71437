(** NetCache-style in-network key-value caching (§3 In-Network
    Computing; Jin et al., SOSP'17).

    The switch sits between clients and a key-value server. GET
    requests for cached keys are answered directly by the data plane;
    misses are forwarded to the server. A count-min sketch tracks key
    popularity; keys whose count crosses [promote_threshold] are
    inserted into the bounded cache, evicting the
    least-recently-hit entry.

    Timer events add what the NetCache authors wished for: periodic
    decay of the popularity statistics and eviction of cache entries
    not hit for [idle_windows] periods (approximate LRU aging), which
    lets the cache track workload shifts. [with_timers:false] gives
    the baseline behaviour — statistics and cache contents only ever
    grow, so after the hot set shifts, the cache stays stale. *)

type Netcore.Packet.payload +=
  | Kv_get of { key : int }
  | Kv_reply of { key : int; from_cache : bool }

type t

val cache_hits : t -> int
val cache_misses : t -> int
val hit_ratio : t -> float
val cached_keys : t -> int list
val promotions : t -> int
val evictions : t -> int

val program :
  ?cache_size:int ->
  ?promote_threshold:int ->
  ?decay_period:Eventsim.Sim_time.t ->
  ?idle_windows:int ->
  with_timers:bool ->
  server_port:int ->
  client_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [client_port] routes replies back toward the requesting client
    (from the reply packet's destination). *)

val get_packet : client:int -> key:int -> Netcore.Packet.t
(** Build a GET for tests/workloads; source encodes the client id. *)
