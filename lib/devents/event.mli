(** Data-plane events — the paper's Table 1.

    Packet events (ingress, egress, recirculated, generated) carry a
    packet through the pipeline; the remaining events are metadata-only
    and are merged into the pipeline by the {!Event_merger}
    (piggybacking on a packet or riding an empty carrier). *)

(** The thirteen event classes of Table 1. *)
type cls =
  | Ingress_packet
  | Egress_packet
  | Recirculated_packet
  | Generated_packet
  | Packet_transmitted
  | Buffer_enqueue
  | Buffer_dequeue
  | Buffer_overflow
  | Buffer_underflow
  | Timer_expiration
  | Control_plane
  | Link_status_change
  | User_event

val all_classes : cls list
val cls_name : cls -> string
val cls_index : cls -> int
val num_classes : int
val cls_equal : cls -> cls -> bool

(** Metadata carried by buffer events. [meta] is the packet's
    [enq_meta]/[deq_meta] slots as initialised by the ingress program
    (the paper's [enq_meta]/[deq_meta] mechanism). Occupancy fields are
    the port's queue state immediately after the event.

    Fields of every event record are mutable only so that
    {!Event_store} can decode queued events into reused per-class
    scratch records without allocating. Handlers must treat delivered
    events as {b read-only} and copy any field they want to retain past
    the handler's return — the record (and its [meta] array) is
    overwritten by the next event of the same class. *)
type buffer_event = {
  mutable port : int;
  mutable qid : int;
  mutable pkt_len : int;
  mutable flow_id : int;
  mutable meta : int array;
  mutable occupancy_pkts : int;
  mutable occupancy_bytes : int;
  mutable time : int;
}

type underflow_event = { mutable port : int; mutable qid : int; mutable time : int }

type transmit_event = {
  mutable port : int;
  mutable pkt_len : int;
  mutable flow_id : int;
  mutable time : int;
}

(** [scheduled] is the ideal instant, [fired] the quantised actual
    instant; [count] is the per-timer firing sequence number. *)
type timer_event = {
  mutable id : int;
  mutable period : int;
  mutable scheduled : int;
  mutable fired : int;
  mutable count : int;
}

type link_event = { mutable port : int; mutable up : bool; mutable time : int }
type control_event = { mutable opcode : int; mutable arg : int; mutable time : int }
type user_event = { mutable tag : int; mutable data : int; mutable time : int }

type t =
  | Enqueue of buffer_event
  | Dequeue of buffer_event
  | Overflow of buffer_event
      (** A packet that had to be dropped because the buffer was full;
          occupancy fields describe the (full) queue. *)
  | Underflow of underflow_event  (** A dequeue left the queue empty. *)
  | Transmitted of transmit_event
  | Timer of timer_event
  | Link_change of link_event
  | Control of control_event
  | User of user_event

val cls_of : t -> cls

val cls_ix_of : t -> int
(** [cls_ix_of ev = cls_index (cls_of ev)], in one match. *)
