(** Runtime detector: a compiled pattern as an ordinary
    {!Evcore.Program}, with one automaton instance per correlation key
    backed by a {!Pisa.Efsm} flow table.

    Every event class the pattern mentions gets a handler that renders
    the event to a (key, input-word) pair and steps the EFSM; a step
    that fires into the accept state is a match. A hidden timer
    broadcasts the detector tick to every instance via
    {!Pisa.Efsm.step_all} (driving window countdowns), and an optional
    [timeout] arms the extern's idle sweep so abandoned partial
    matches are garbage-collected through the same supervised,
    shed-safe timer machinery as every other EFSM program.

    Correlation ([correlate ~key] in CEP terms) is the key extractor:
    metadata events correlate by port ([Control_plane] by opcode,
    [User_event] by tag, [Timer_expiration] by timer id) and packet
    events by default by ingress port ([Egress_packet] by egress port);
    [pkt_key] substitutes e.g. a flow or destination-host selector.
    The attribute is queue occupancy for buffer events, packet length
    for packet and transmit events ([pkt_attr] overrides it for
    packets), 1/0 for link up/down, and opcode / data / timer id for
    control / user / timer events. *)

type t

val program :
  ?slots:int ->
  ?timeout:Eventsim.Sim_time.t ->
  ?pkt_attr:(Netcore.Packet.t -> int) ->
  ?pkt_key:(Netcore.Packet.t -> int) ->
  ?forward:(Evcore.Program.ctx -> Netcore.Packet.t -> Evcore.Program.decision) ->
  ?on_match:(key:int -> time:int -> unit) ->
  name:string ->
  compiled:Compile.t ->
  unit ->
  Evcore.Program.spec * t
(** [slots] bounds concurrent instances (LRU beyond; default 1024).
    [timeout] (off by default) evicts instances idle that long —
    partial-match GC via an EFSM sweep every [timeout]. [forward]
    decides packets (default: forward on the ingress port, i.e. reflect
    — detectors are usually installed as taps next to a routing
    [forward]). [on_match] fires at every pattern completion. *)

val matches : t -> int

val match_log : t -> (int * int) list
(** [(key, time)] per match, oldest first. *)
