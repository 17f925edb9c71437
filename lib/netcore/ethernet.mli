(** Ethernet II header. *)

(** Fields are mutable only for in-place reuse by
    {!Packet_arena}-recycled packets; treat received headers as
    read-only. *)
type t = { mutable dst : Mac_addr.t; mutable src : Mac_addr.t; mutable ethertype : int }

val size : int
(** 14 bytes (no VLAN tag). *)

val ethertype_ipv4 : int
val ethertype_event : int
(** Private ethertype used by the simulated architecture for internally
    generated control/event packets (probes, echoes, reports). *)

val make : dst:Mac_addr.t -> src:Mac_addr.t -> ethertype:int -> t

val set : t -> dst:Mac_addr.t -> src:Mac_addr.t -> ethertype:int -> unit
(** Refill every field in place, as {!make} would — allocation-free. *)
