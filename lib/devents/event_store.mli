(** Off-heap struct-of-arrays event store.

    Per-class bounded FIFO rings of metadata events, stored as flat int
    columns in Bigarrays rather than boxed {!Event.t} values. Pushing
    writes fields straight into the ring (the unboxed [push_*] entry
    points allocate nothing); {!take} decodes the oldest event of a
    class into a reused per-class scratch record and returns a
    preallocated [Event.t] wrapper around it.

    The returned event is valid only until the next {!take} of the same
    class — consumers copy out any field they retain. A buffer event's
    [meta] array is stored inline: it must have exactly
    [Packet.meta_slots] entries, the length of every metadata array a
    packet carries.

    Class indices are {!Event.cls_index} values; packet classes
    (ingress/egress/recirculated/generated) are never queued here. *)

type t

val create : capacity:int -> unit -> t
(** [capacity] is the per-class ring size; a full ring refuses the push
    and counts the drop, like {!Event_queue}. *)

val length : t -> cls_ix:int -> int
val total : t -> int

val dropped : t -> cls_ix:int -> int
val high_watermark : t -> cls_ix:int -> int

(** {1 Unboxed pushes} — [false] when that class's ring is full. *)

val push_buffer :
  t ->
  cls_ix:int ->
  port:int ->
  qid:int ->
  pkt_len:int ->
  flow_id:int ->
  meta:int array ->
  occupancy_pkts:int ->
  occupancy_bytes:int ->
  time:int ->
  bool
(** [cls_ix] selects enqueue, dequeue or overflow. [meta] is read (and
    snapshotted) at push time; the caller may keep mutating it. A
    [meta] that is not [Packet.meta_slots] long raises
    [Invalid_argument]. *)

val push_underflow : t -> port:int -> qid:int -> time:int -> bool
val push_transmitted : t -> port:int -> pkt_len:int -> flow_id:int -> time:int -> bool

val push : t -> Event.t -> bool
(** Boxed fallback: encode an already-constructed event (field values
    are snapshotted; the event itself is not retained). *)

val take : t -> cls_ix:int -> Event.t
(** Decode and dequeue the oldest event of the class. The result is a
    reused scratch record, valid until the next [take] of the same
    class.

    @raise Invalid_argument if the class ring is empty or [cls_ix] is a
    packet class. *)
