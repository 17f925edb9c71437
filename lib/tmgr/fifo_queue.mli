(** Packet FIFO with byte/packet occupancy accounting. *)

type t

val create : ?limit_bytes:int -> unit -> t
val can_accept : t -> int -> bool
(** Does a packet of this many bytes fit under the per-queue limit? *)

val push : t -> Netcore.Packet.t -> unit
val pop : t -> Netcore.Packet.t option
val occupancy_bytes : t -> int
val high_watermark_bytes : t -> int
val is_empty : t -> bool
