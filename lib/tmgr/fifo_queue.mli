(** Packet FIFO with byte/packet occupancy accounting. *)

type t

val create : ?limit_bytes:int -> unit -> t
val can_accept : t -> int -> bool
(** Does a packet of this many bytes fit under the per-queue limit? *)

val push : t -> Netcore.Packet.t -> unit
val pop : t -> Netcore.Packet.t
(** The oldest packet, or {!Netcore.Packet.nil} when empty. *)

val high_watermark_bytes : t -> int
