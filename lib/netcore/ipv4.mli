(** IPv4 header (no options). *)

(** Fields are mutable only for in-place reuse by
    {!Packet_arena}-recycled packets; treat received headers as
    read-only. *)
type t = {
  mutable total_len : int; (* header + payload, bytes *)
  mutable ttl : int;
  mutable proto : int;
  mutable src : Ipv4_addr.t;
  mutable dst : Ipv4_addr.t;
}

val size : int
(** 20 bytes. *)

val proto_tcp : int
val proto_udp : int

val make : proto:int -> src:Ipv4_addr.t -> dst:Ipv4_addr.t -> payload_len:int -> unit -> t
(** A header with TTL 64. *)

val set : t -> proto:int -> src:Ipv4_addr.t -> dst:Ipv4_addr.t -> payload_len:int -> unit
(** Refill every field in place, as {!make} would — allocation-free. *)
