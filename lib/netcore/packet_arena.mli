(** Arena allocator for packets with free-list recycling.

    Retired packets go on a free stack; {!acquire_udp} refills a pooled
    record in place (fresh uid, reset metadata bus, rewritten headers)
    instead of allocating a new record tree. A steady-state
    acquire/traverse/release cycle allocates zero minor words.

    Ownership: call {!release} only when no other reference to the
    packet remains — in particular not while a
    {!Packet.clone_for_forward} clone sharing its header records is
    still alive, since the next acquire mutates those headers.
    Arenas are single-domain; use one arena per shard. *)

type t

val create : unit -> t
(** The free stack starts with room for 64 packets and grows by
    doubling. *)

val acquire_udp :
  t -> src:Ipv4_addr.t -> dst:Ipv4_addr.t ->
  src_port:int -> dst_port:int -> payload_len:int -> unit -> Packet.t
(** A UDP workload packet as {!Packet.udp_packet} would build, with
    MACs derived from the addresses, a fresh uid and [created_at] 0 —
    recycled from the pool when possible, freshly allocated when the
    pool is empty. *)

val release : t -> Packet.t -> unit
(** Return a packet to the pool. Raises [Invalid_argument] on
    {!Packet.nil}. Releasing a packet that is still referenced
    elsewhere (or releasing it twice) is a logic error the arena cannot
    detect. *)

val live : t -> int
(** Packets acquired and not yet released. *)

val created : t -> int
(** Packets the arena had to allocate fresh. *)

val reused : t -> int
(** Acquisitions served from the pool. *)

val pooled : t -> int
(** Packets currently parked on the free stack. *)
