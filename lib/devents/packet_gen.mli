(** Configurable in-dataplane packet generator (Figure 4, "Packet
    Generator" block).

    Periodically builds a packet from a template function and hands it
    to the architecture's sink, which injects it into the pipeline as a
    {e Generated Packet} event. The control plane (or the data-plane
    program itself, via a context call) can reconfigure period and
    template at run time. *)

type t

val create :
  sched:Eventsim.Scheduler.t -> sink:(Netcore.Packet.t -> unit) -> unit -> t

val configure :
  t -> period:Eventsim.Sim_time.t -> ?count:int -> template:(int -> Netcore.Packet.t) -> unit -> unit
(** Start (or restart) generation: packet [i] (from 0) is
    [template i], emitted every [period]; stop after [count] packets
    when given. *)

val stop : t -> unit
