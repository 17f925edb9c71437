(** Synthetic flow populations for measurement experiments: Zipf
    popularity over keys, Pareto sizes, Poisson arrivals — the standard
    shape for heavy-hitter / sketch workloads.

    Two consumption styles share one draw order ((gap, rank, size) per
    flow, from the caller's seeded RNG):

    - {!generate} materializes the population as a list — fine up to
      thousands of flows;
    - {!stream} / {!install} draw flows lazily, one at a time, so a
      million-flow Zipf mix costs O(1) live words (plus O(live flows)
      while running): nothing per-flow is retained after the flow
      finishes. *)

type flow_desc = {
  flow : Netcore.Flow.t;
  packets : int;  (** flow length in packets *)
  pkt_bytes : int;
  start : Eventsim.Sim_time.t;
  rank : int;  (** popularity rank of the flow's key (1 = hottest) *)
}

type spec = {
  num_flows : int;
  key_space : int;  (** distinct (src,dst) pairs *)
  zipf_alpha : float;
  mean_packets : float;  (** mean flow length (Pareto, shape 1.4) *)
  max_packets : int;
      (** cap on a single flow's drawn length ([max_int] = uncapped);
          large-topology runs cap the Pareto tail so every flow
          completes within the simulated horizon *)
  pkt_bytes : int;
  arrival_rate_per_sec : float;  (** Poisson flow arrivals *)
}

val default_spec : spec

val flow_of_rank : int -> Netcore.Flow.t
(** The default rank -> five-tuple mapping (subnet 1 -> subnet 2,
    distinct ports per rank). Override it in {!stream}/{!install} to
    embed topology-aware sources and destinations. *)

val generate : rng:Stats.Rng.t -> spec -> flow_desc list
(** Flows ordered by start time. Materializes the whole population —
    implemented as {!stream} collected into a list, so the draws are
    bit-identical to the streaming forms for the same seed. *)

val stream :
  rng:Stats.Rng.t ->
  ?flow_of_rank:(int -> Netcore.Flow.t) ->
  spec ->
  f:(flow_desc -> unit) ->
  unit
(** Visit the population in start-time order without retaining it:
    [f] sees each descriptor exactly once, then it is garbage. *)

val true_packet_counts : flow_desc list -> (int, int) Hashtbl.t
(** Key (packed flow hash) -> total packets; ground truth for sketch
    accuracy experiments. *)

(** Counters of one {!install}ed source; all monotone except
    [live_flows]. Read them during or after the run. *)
type source_stats = {
  mutable flows_started : int;
  mutable flows_finished : int;
  mutable live_flows : int;  (** started, last packet not yet emitted *)
  mutable peak_live_flows : int;
  mutable packets_sent : int;
  mutable bytes_sent : int;
}

val install :
  sched:Eventsim.Scheduler.t ->
  rng:Stats.Rng.t ->
  ?flow_of_rank:(int -> Netcore.Flow.t) ->
  ?start:Eventsim.Sim_time.t ->
  ?arrival_stop:Eventsim.Sim_time.t ->
  rate_pps_per_flow:float ->
  ?on_flow:(flow_desc -> unit) ->
  ?on_flow_end:(flow_desc -> unit) ->
  spec ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  source_stats
(** Run the population live against a scheduler, streaming: flow [i+1]
    is drawn only when flow [i] arrives, and each live flow is one
    pending emission event emitting its packets [rate_pps_per_flow]
    apart. Memory is O(live flows), never O([spec.num_flows]).

    Each emission gap carries a deterministic picosecond-scale offset
    derived from the flow's drawn arrival time and the packet index,
    so large populations sharing one exact rate do not produce
    repeated same-instant arrival ties at a switch — the
    no-simultaneous-arrivals precondition [Parsim]'s cross-shard
    determinism rests on. The offset is independent of the shard
    layout, and at most 4 ns per gap.

    Arrivals at or after [arrival_stop] end the arrival chain (draw
    times never decrease, so nothing later could start either);
    started flows still emit to natural completion, which keeps flow
    lifetimes independent of the cutoff. [on_flow] / [on_flow_end]
    fire at flow start / completion — the hooks live-flow accounting
    and concurrency sampling plug into. *)

val replay :
  sched:Eventsim.Scheduler.t ->
  flows:flow_desc list ->
  rate_pps_per_flow:float ->
  send:(Netcore.Packet.t -> unit) ->
  unit ->
  Traffic.t list
(** Start a CBR-ish sub-source per flow emitting its packets. *)
