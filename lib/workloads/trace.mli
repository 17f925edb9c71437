(** Synthetic trace record/replay.

    A trace is an ordered list of timed packet descriptors. Recording
    captures a workload once (e.g. from generators wired through
    {!record}); replaying injects the identical arrival sequence into
    any switch — so event-driven and baseline variants of an
    experiment can be driven by byte-identical input, and regression
    runs are immune to generator changes. Descriptors keep the five
    tuple and size rather than the packet object, so replay
    constructs fresh packets (fresh uids, clean metadata). *)

type t

val create : unit -> t
val length : t -> int

val record : t -> sched:Eventsim.Scheduler.t -> port:int -> Netcore.Packet.t -> unit
(** Note an arrival now (use as/inside a [send] callback). Packets
    without an IP header are skipped. An arrival before the last one
    recorded raises [Invalid_argument]. *)

val replay : t -> sched:Eventsim.Scheduler.t -> send:(port:int -> Netcore.Packet.t -> unit) -> unit -> int
(** Schedule every entry at its recorded time; returns the number
    scheduled. *)
