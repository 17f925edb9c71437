(** E25 — in-network complex-event processing on the EFSM extern.

    Part A measures detection quality on a single switch: the DDoS
    SYN-signature detector against Zipf-skewed organic traffic with two
    injected floods (detection latency and false-alarm rate), and the
    microburst-forensics detector against a shallow queue (culprit-port
    accuracy).

    Part B runs both CEP apps on a ring of 8 switches under Parsim at
    1/2/4 shards and checks that merged traces and merged metrics —
    including the detectors' [pisa.efsm.*] series — are byte-identical
    to the sequential run. A chaos leg repeats the SYN scenario with
    crash injection, quarantine and event shedding live, asserting the
    detectors keep matching through recovery and the whole path stays
    deterministic. *)

val name : string

type flood_quality = {
  attacks : int;
  detected : int;
  latencies_us : float list;  (** one per detected attack, attack order *)
  alarms : int;
  false_alarms : int;
  fp_rate : float;  (** false alarms / alarms *)
  background_syns : int;
}

type burst_quality = {
  bursts_injected : int;
  bursts_detected : int;
  culprit_ports : int list;
  culprit_correct : bool;  (** every report names the flooded port *)
  overflow_drops : int;
}

(** The two detector apps of the ring scenario. *)
type app = Syn | Burst

val scenario :
  ?alarms:int ref ->
  ?chaos:bool ->
  app ->
  ?shards:int ->
  ?record_trace:bool ->
  seed:int ->
  until:Eventsim.Sim_time.t ->
  unit ->
  Parsim.config
(** The Part B ring scenario, shared with gen_golden.exe and the
    conformance suite. [alarms] is bumped on every detector match (read
    it from 1-shard runs only); [chaos] arms one crash per switch and
    enables quarantine + shedding. *)

val golden_until : Eventsim.Sim_time.t

val golden : Conformance.golden
(** Seeds 42 and 7; one trace and one metrics digest per leg
    (["syn.*"], ["burst.*"], plus the chaos leg ["chaos.*"]). The canon
    is the sequential run; every shard count must reproduce it
    byte-for-byte. *)

type result = {
  seed : int;
  until : Eventsim.Sim_time.t;
  flood : flood_quality;
  burst : burst_quality;
  runs : (string * unit Conformance.run list) list;  (** per app: ["syn"], ["burst"] *)
  all_conformant : bool;
  chaos_alarms : int;  (** detector matches with crashes + shedding live *)
  chaos_conformant : bool;
}

val run :
  ?metrics:Obs.Metrics.t ->
  ?seed:int ->
  ?shard_counts:int list ->
  ?until:Eventsim.Sim_time.t ->
  unit ->
  result

val print : result -> unit
