(** Unboxed event sink for buffer and transmit notifications.

    The traffic manager used to report activity as boxed {!Event.t}
    values; on the hot path that meant a fresh payload record (plus a
    copied meta array) per enqueue/dequeue/transmit. A sink instead
    carries one labelled entry point per event shape, so producers pass
    plain int fields and the consumer decides — usually by writing them
    straight into a slot of the {!Event_merger}'s ring for that class —
    without any intermediate boxing.

    The [meta] array argument is only borrowed for the duration of the
    call: implementations must snapshot it if they retain it, and
    callers may keep mutating it afterwards. *)

type t = {
  enqueue :
    port:int -> qid:int -> pkt_len:int -> flow_id:int -> meta:int array ->
    occupancy_pkts:int -> occupancy_bytes:int -> time:int -> unit;
  dequeue :
    port:int -> qid:int -> pkt_len:int -> flow_id:int -> meta:int array ->
    occupancy_pkts:int -> occupancy_bytes:int -> time:int -> unit;
  overflow :
    port:int -> qid:int -> pkt_len:int -> flow_id:int -> meta:int array ->
    occupancy_pkts:int -> occupancy_bytes:int -> time:int -> unit;
  underflow : port:int -> qid:int -> time:int -> unit;
  transmitted : port:int -> pkt_len:int -> flow_id:int -> time:int -> unit;
}
