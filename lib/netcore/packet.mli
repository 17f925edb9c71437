(** The simulator's packet representation.

    Headers are structured records; application payloads are an
    extensible variant so that each application can define its own
    in-network message types (probes, echoes, cache requests) without
    [netcore] knowing about them. [payload_len] is authoritative for
    wire length regardless of the payload constructor. *)

type l4 = Udp of Udp.t | Tcp of Tcp.t | No_l4

type payload = ..
type payload += Opaque
(** Uninterpreted payload bytes: only [payload_len] counts. *)

(** Per-packet metadata bus. [enq_meta] and [deq_meta] are the slots the
    paper's ingress logic fills so that enqueue/dequeue event handlers
    receive per-packet context; 4 slots of 32 bits each, matching a
    narrow hardware metadata bus. *)
type meta = {
  mutable ingress_port : int;
  mutable flow_id : int;
  mutable priority : int;  (** PIFO rank / scheduling priority. *)
  mutable qid : int;  (** output queue id chosen by ingress *)
  mutable mark : int;  (** application marking, e.g. multi-bit ECN *)
  mutable version : int;
      (** policy version the packet entered the network under (stamped
          at the ingress edge by [Netupd.Agent]); 0 = unversioned *)
  enq_meta : int array;
  deq_meta : int array;
}

(** All fields are mutable so {!Packet_arena} can recycle packet
    records in place (and data-plane programs rewrite payloads in
    flight, as P4 programs rewrite headers). Outside arena reuse, the
    header fields are set once at creation and must be treated as
    immutable. *)
type t = {
  mutable uid : int;  (** unique per-process packet id *)
  mutable eth : Ethernet.t;
  mutable ip : Ipv4.t option;
  mutable l4 : l4;
  mutable payload : payload;
  mutable payload_len : int;
  mutable created_at : int;  (** creation timestamp, ps *)
  meta : meta;
}

val meta_slots : int
(** Number of 32-bit slots in [enq_meta]/[deq_meta] (4). *)

val fresh_uid : unit -> int
(** Next packet uid from the global counter — what {!create} assigns.
    Exposed for {!Packet_arena}, which recycles records in place but
    must still give each logical packet a distinct identity. *)

val create :
  ?ip:Ipv4.t -> ?l4:l4 -> ?payload:payload -> ?payload_len:int -> ?created_at:int ->
  eth:Ethernet.t -> unit -> t

val nil : t
(** Distinguished "no packet" sentinel (identity-checked with
    {!is_nil}); lets hot-path slots hold a plain [t] instead of a
    [t option]. Never inject, enqueue, or mutate it. *)

val is_nil : t -> bool

val udp_packet :
  ?created_at:int -> ?payload:payload -> src:Ipv4_addr.t -> dst:Ipv4_addr.t ->
  src_port:int -> dst_port:int -> payload_len:int -> unit -> t
(** Convenience constructor for the common workload packet, with MACs
    derived from the addresses. *)

val tcp_packet :
  ?created_at:int -> ?payload:payload -> ?flags:int -> ?seq:int ->
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> src_port:int -> dst_port:int ->
  payload_len:int -> unit -> t
(** Like {!udp_packet} but with a TCP header carrying real [flags]
    (see {!Tcp.flag_syn} etc.) — what flag-driven stateful programs
    parse. *)

val len : t -> int
(** Wire length in bytes (headers + payload). *)

val flow : t -> Flow.t option
(** Five-tuple, when the packet has an IP header. *)

val flow_exn : t -> Flow.t

val flow_key : t -> int
(** The address key {!Flow.hash_addresses} mixes — i.e.
    [Hashes.mix64 (flow_key t)] equals [Flow.hash_addresses f] for the
    packet's flow [f] — computed without allocating the flow record.
    [-1] when the packet has no IP header. *)

val clone_for_forward : ?eth:Ethernet.t -> ?ip:Ipv4.t -> t -> t
(** A copy with a fresh uid sharing payload, for multicast fan-out. *)

val pp : Format.formatter -> t -> unit
