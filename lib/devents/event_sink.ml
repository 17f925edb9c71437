(* Unboxed event sink: the traffic manager reports buffer/transmit
   activity by calling these labelled entry points with plain int
   fields, so the hot TM -> switch -> merger path never materialises a
   boxed [Event.t]. *)

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
