(** Traffic sources.

    Each source repeatedly builds a packet for a given five-tuple and
    hands it to a [send] callback on a schedule; the callback typically
    wraps [Host.send] or [Event_switch.inject]. Sources stop at
    [stop] time (exclusive) and count what they sent. *)

type t

val sent : t -> int
val sent_bytes : t -> int

val make_packet :
  sched:Eventsim.Scheduler.t -> flow:Netcore.Flow.t -> pkt_bytes:int -> Netcore.Packet.t
(** One UDP packet for the five-tuple, [pkt_bytes] on the wire
    (headers + payload), stamped [created_at = now]. The building block
    every source here shares; exposed for streaming generators that
    schedule their own emissions. *)

val cbr :
  sched:Eventsim.Scheduler.t ->
  flow:Netcore.Flow.t ->
  pkt_bytes:int ->
  rate_gbps:float ->
  ?start:Eventsim.Sim_time.t ->
  ?stop:Eventsim.Sim_time.t ->
  ?jitter:(Stats.Rng.t * Eventsim.Sim_time.t) ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** Constant bit rate: one [pkt_bytes] packet every
    [pkt_bytes * 8 / rate] seconds; optional uniform send jitter. *)

val poisson :
  sched:Eventsim.Scheduler.t ->
  rng:Stats.Rng.t ->
  flow:Netcore.Flow.t ->
  pkt_bytes:int ->
  rate_pps:float ->
  ?stop:Eventsim.Sim_time.t ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** Poisson arrivals at [rate_pps], the first at the current time. *)

val on_off :
  sched:Eventsim.Scheduler.t ->
  rng:Stats.Rng.t ->
  flow:Netcore.Flow.t ->
  pkt_bytes:int ->
  burst_rate_gbps:float ->
  on_time:Eventsim.Sim_time.t ->
  off_time:Eventsim.Sim_time.t ->
  ?start:Eventsim.Sim_time.t ->
  ?stop:Eventsim.Sim_time.t ->
  ?exponential_gaps:bool ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** On/off (microburst-shaped) source: sends at [burst_rate_gbps] for
    [on_time], silent for [off_time], repeats. With
    [exponential_gaps], on/off durations are exponential with those
    means. *)

val burst_once :
  sched:Eventsim.Scheduler.t ->
  flow:Netcore.Flow.t ->
  pkt_bytes:int ->
  count:int ->
  rate_gbps:float ->
  at:Eventsim.Sim_time.t ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** A single back-to-back burst of [count] packets starting at [at]. *)
