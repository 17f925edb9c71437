(** Microburst forensics as a compiled CEP pattern, correlated per
    output port: [within window (seq [count ramp (enqueue >= depth);
    overflow])] — a queue that climbs past [depth] packets [ramp]
    times and then actually drops, all inside [window], is a microburst
    that caused loss; a slow ramp whose window expires before the
    overflow is congestion, not a burst, and is not reported. Distinct
    from {!Microburst} (which byte-counts one culprit flow): this one
    sequences buffer {e events} and reports the afflicted port. *)

type t

val program :
  ?slots:int ->
  ?ramp:int ->
  ?depth:int ->
  ?window:Eventsim.Sim_time.t ->
  ?tick_period:Eventsim.Sim_time.t ->
  ?on_match:(key:int -> time:int -> unit) ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** Defaults: 8 enqueues at occupancy >= 16 pkts followed by an
    overflow inside 50 µs, 10 µs detector tick; idle detector instances
    are never swept. [on_match]'s [key] is the port. *)

val bursts : t -> int
val culprit_ports : t -> int list
(** One entry per detected burst, oldest first. *)
