(** End host: a traffic source/sink attached to one switch port via a
    link. Workload generators drive [send]; applications inspect
    received packets via the receiver callback or the counters. *)

type t

val create : sched:Eventsim.Scheduler.t -> id:int -> unit -> t
val set_receiver : t -> (t -> Netcore.Packet.t -> unit) -> unit
val set_tx : t -> (Netcore.Packet.t -> unit) -> unit
(** Wired by [Parsim.run] to the host's {!Topology} link. *)

val send : t -> Netcore.Packet.t -> unit
val deliver : t -> Netcore.Packet.t -> unit
(** Called by the link when a packet arrives. *)

val sent : t -> int
val received : t -> int
val received_bytes : t -> int
