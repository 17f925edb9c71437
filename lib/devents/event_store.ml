(* Off-heap struct-of-arrays event store.

   Queued metadata events live as flat int columns in one Bigarray ring
   per class, not as boxed [Event.t] values: pushing an event writes its
   fields into the ring and popping decodes them into a reused per-class
   scratch record. A steady-state offer/collect cycle therefore
   allocates zero minor words, and the queued backlog is invisible to
   the OCaml GC (no scanning, no promotion).

   A buffer event's [meta] array is stored inline in its row: it has
   exactly [Packet.meta_slots] slots, the length of every metadata
   array a packet carries ([Packet.fresh_meta] builds them all).

   A class's ring is built at its first accepted push, so a switch whose
   program handles no metadata events allocates none. *)

module BA1 = Bigarray.Array1

type ring = {
  mutable buf : (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t; (* [unbuilt] until a push *)
  width : int; (* ints per row; 0 for packet classes, never queued here *)
  cap : int; (* rows *)
  mutable head : int; (* row index of the oldest queued event *)
  mutable count : int;
  mutable dropped : int;
  mutable hwm : int;
}

let meta_slots = Netcore.Packet.meta_slots

(* Row widths by class index. Buffer events (ix 5-7) carry
   port, qid, pkt_len, flow_id, occ_pkts, occ_bytes, time and the
   [meta_slots] (4) meta slots. Packet classes (ix 0-3) ride the
   merger's packet queues, never the event store. *)
let widths = [| 0; 0; 0; 0; 4; 11; 11; 11; 3; 5; 3; 3; 3 |]

(* Shared scratch records, one per class, that [take] decodes into.
   The [Event.t] wrappers are preallocated too, so decoding allocates
   nothing. *)
type scratch = {
  s_enq : Event.buffer_event;
  s_deq : Event.buffer_event;
  s_ovf : Event.buffer_event;
  s_enq_meta : int array;
  s_deq_meta : int array;
  s_ovf_meta : int array;
  s_und : Event.underflow_event;
  s_tx : Event.transmit_event;
  s_timer : Event.timer_event;
  s_link : Event.link_event;
  s_ctl : Event.control_event;
  s_user : Event.user_event;
  wrappers : Event.t array; (* by class index *)
}

type t = {
  rings : ring array; (* by class index *)
  mutable total : int; (* queued events across all classes *)
  scratch : scratch;
}

let make_scratch () =
  let buf meta =
    {
      Event.port = 0;
      qid = 0;
      pkt_len = 0;
      flow_id = 0;
      meta;
      occupancy_pkts = 0;
      occupancy_bytes = 0;
      time = 0;
    }
  in
  let s_enq_meta = Array.make meta_slots 0 in
  let s_deq_meta = Array.make meta_slots 0 in
  let s_ovf_meta = Array.make meta_slots 0 in
  let s_enq = buf s_enq_meta in
  let s_deq = buf s_deq_meta in
  let s_ovf = buf s_ovf_meta in
  let s_und = { Event.port = 0; qid = 0; time = 0 } in
  let s_tx = { Event.port = 0; pkt_len = 0; flow_id = 0; time = 0 } in
  let s_timer = { Event.id = 0; period = 0; scheduled = 0; fired = 0; count = 0 } in
  let s_link = { Event.port = 0; up = false; time = 0 } in
  let s_ctl = { Event.opcode = 0; arg = 0; time = 0 } in
  let s_user = { Event.tag = 0; data = 0; time = 0 } in
  let dummy = Event.Underflow s_und in
  let wrappers = Array.make Event.num_classes dummy in
  wrappers.(4) <- Event.Transmitted s_tx;
  wrappers.(5) <- Event.Enqueue s_enq;
  wrappers.(6) <- Event.Dequeue s_deq;
  wrappers.(7) <- Event.Overflow s_ovf;
  wrappers.(8) <- Event.Underflow s_und;
  wrappers.(9) <- Event.Timer s_timer;
  wrappers.(10) <- Event.Control s_ctl;
  wrappers.(11) <- Event.Link_change s_link;
  wrappers.(12) <- Event.User s_user;
  {
    s_enq;
    s_deq;
    s_ovf;
    s_enq_meta;
    s_deq_meta;
    s_ovf_meta;
    s_und;
    s_tx;
    s_timer;
    s_link;
    s_ctl;
    s_user;
    wrappers;
  }

let unbuilt = BA1.create Bigarray.int Bigarray.c_layout 0

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Event_store.create: capacity must be positive";
  let rings =
    Array.init Event.num_classes (fun ix ->
        {
          buf = unbuilt;
          width = widths.(ix);
          cap = capacity;
          head = 0;
          count = 0;
          dropped = 0;
          hwm = 0;
        })
  in
  { rings; total = 0; scratch = make_scratch () }

let length t ~cls_ix = t.rings.(cls_ix).count
let total t = t.total
let dropped t ~cls_ix = t.rings.(cls_ix).dropped
let high_watermark t ~cls_ix = t.rings.(cls_ix).hwm

(* Claim the next free row of [r], or count a drop. Returns the row's
   base offset into the ring's Bigarray, or -1 when full. *)
let claim t r =
  if r.count >= r.cap then begin
    r.dropped <- r.dropped + 1;
    -1
  end
  else begin
    if r.buf == unbuilt then r.buf <- BA1.create Bigarray.int Bigarray.c_layout (r.cap * r.width);
    let row = r.head + r.count in
    let row = if row >= r.cap then row - r.cap else row in
    r.count <- r.count + 1;
    if r.count > r.hwm then r.hwm <- r.count;
    t.total <- t.total + 1;
    row * r.width
  end

(* Release the oldest row of [r]; returns its base offset. The caller
   has checked [r.count > 0]. *)
let consume t r =
  let off = r.head * r.width in
  r.head <- (if r.head + 1 >= r.cap then 0 else r.head + 1);
  r.count <- r.count - 1;
  t.total <- t.total - 1;
  off

(* {2 Unboxed pushes} *)

let push_buffer t ~cls_ix ~port ~qid ~pkt_len ~flow_id ~meta ~occupancy_pkts ~occupancy_bytes
    ~time =
  if Array.length meta <> meta_slots then
    invalid_arg "Event_store.push_buffer: meta is not Packet.meta_slots long";
  let r = t.rings.(cls_ix) in
  let off = claim t r in
  if off < 0 then false
  else begin
    let b = r.buf in
    BA1.unsafe_set b off port;
    BA1.unsafe_set b (off + 1) qid;
    BA1.unsafe_set b (off + 2) pkt_len;
    BA1.unsafe_set b (off + 3) flow_id;
    BA1.unsafe_set b (off + 4) occupancy_pkts;
    BA1.unsafe_set b (off + 5) occupancy_bytes;
    BA1.unsafe_set b (off + 6) time;
    BA1.unsafe_set b (off + 7) (Array.unsafe_get meta 0);
    BA1.unsafe_set b (off + 8) (Array.unsafe_get meta 1);
    BA1.unsafe_set b (off + 9) (Array.unsafe_get meta 2);
    BA1.unsafe_set b (off + 10) (Array.unsafe_get meta 3);
    true
  end

let push_underflow t ~port ~qid ~time =
  let r = t.rings.(8) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off port;
    BA1.unsafe_set r.buf (off + 1) qid;
    BA1.unsafe_set r.buf (off + 2) time;
    true
  end

let push_transmitted t ~port ~pkt_len ~flow_id ~time =
  let r = t.rings.(4) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off port;
    BA1.unsafe_set r.buf (off + 1) pkt_len;
    BA1.unsafe_set r.buf (off + 2) flow_id;
    BA1.unsafe_set r.buf (off + 3) time;
    true
  end

let push_timer t ~id ~period ~scheduled ~fired ~count =
  let r = t.rings.(9) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off id;
    BA1.unsafe_set r.buf (off + 1) period;
    BA1.unsafe_set r.buf (off + 2) scheduled;
    BA1.unsafe_set r.buf (off + 3) fired;
    BA1.unsafe_set r.buf (off + 4) count;
    true
  end

let push_control t ~opcode ~arg ~time =
  let r = t.rings.(10) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off opcode;
    BA1.unsafe_set r.buf (off + 1) arg;
    BA1.unsafe_set r.buf (off + 2) time;
    true
  end

let push_link t ~port ~up ~time =
  let r = t.rings.(11) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off port;
    BA1.unsafe_set r.buf (off + 1) (if up then 1 else 0);
    BA1.unsafe_set r.buf (off + 2) time;
    true
  end

let push_user t ~tag ~data ~time =
  let r = t.rings.(12) in
  let off = claim t r in
  if off < 0 then false
  else begin
    BA1.unsafe_set r.buf off tag;
    BA1.unsafe_set r.buf (off + 1) data;
    BA1.unsafe_set r.buf (off + 2) time;
    true
  end

(* Boxed fallback: encode an already-constructed [Event.t]. *)
let push t ev =
  match ev with
  | Event.Enqueue b | Event.Dequeue b | Event.Overflow b ->
      push_buffer t ~cls_ix:(Event.cls_ix_of ev) ~port:b.Event.port ~qid:b.Event.qid
        ~pkt_len:b.Event.pkt_len ~flow_id:b.Event.flow_id ~meta:b.Event.meta
        ~occupancy_pkts:b.Event.occupancy_pkts ~occupancy_bytes:b.Event.occupancy_bytes
        ~time:b.Event.time
  | Event.Underflow u ->
      push_underflow t ~port:u.Event.port ~qid:u.Event.qid ~time:u.Event.time
  | Event.Transmitted x ->
      push_transmitted t ~port:x.Event.port ~pkt_len:x.Event.pkt_len ~flow_id:x.Event.flow_id
        ~time:x.Event.time
  | Event.Timer x ->
      push_timer t ~id:x.Event.id ~period:x.Event.period ~scheduled:x.Event.scheduled
        ~fired:x.Event.fired ~count:x.Event.count
  | Event.Link_change l -> push_link t ~port:l.Event.port ~up:l.Event.up ~time:l.Event.time
  | Event.Control c -> push_control t ~opcode:c.Event.opcode ~arg:c.Event.arg ~time:c.Event.time
  | Event.User u -> push_user t ~tag:u.Event.tag ~data:u.Event.data ~time:u.Event.time

(* {2 Decoding} *)

let decode_buffer t r (s : Event.buffer_event) meta =
  let off = consume t r in
  let b = r.buf in
  s.Event.port <- BA1.unsafe_get b off;
  s.Event.qid <- BA1.unsafe_get b (off + 1);
  s.Event.pkt_len <- BA1.unsafe_get b (off + 2);
  s.Event.flow_id <- BA1.unsafe_get b (off + 3);
  s.Event.occupancy_pkts <- BA1.unsafe_get b (off + 4);
  s.Event.occupancy_bytes <- BA1.unsafe_get b (off + 5);
  s.Event.time <- BA1.unsafe_get b (off + 6);
  Array.unsafe_set meta 0 (BA1.unsafe_get b (off + 7));
  Array.unsafe_set meta 1 (BA1.unsafe_get b (off + 8));
  Array.unsafe_set meta 2 (BA1.unsafe_get b (off + 9));
  Array.unsafe_set meta 3 (BA1.unsafe_get b (off + 10));
  s.Event.meta <- meta

let take t ~cls_ix =
  let r = t.rings.(cls_ix) in
  if r.count = 0 then invalid_arg "Event_store.take: class queue is empty";
  let s = t.scratch in
  (match cls_ix with
  | 5 -> decode_buffer t r s.s_enq s.s_enq_meta
  | 6 -> decode_buffer t r s.s_deq s.s_deq_meta
  | 7 -> decode_buffer t r s.s_ovf s.s_ovf_meta
  | 8 ->
      let off = consume t r in
      s.s_und.Event.port <- BA1.unsafe_get r.buf off;
      s.s_und.Event.qid <- BA1.unsafe_get r.buf (off + 1);
      s.s_und.Event.time <- BA1.unsafe_get r.buf (off + 2)
  | 4 ->
      let off = consume t r in
      s.s_tx.Event.port <- BA1.unsafe_get r.buf off;
      s.s_tx.Event.pkt_len <- BA1.unsafe_get r.buf (off + 1);
      s.s_tx.Event.flow_id <- BA1.unsafe_get r.buf (off + 2);
      s.s_tx.Event.time <- BA1.unsafe_get r.buf (off + 3)
  | 9 ->
      let off = consume t r in
      s.s_timer.Event.id <- BA1.unsafe_get r.buf off;
      s.s_timer.Event.period <- BA1.unsafe_get r.buf (off + 1);
      s.s_timer.Event.scheduled <- BA1.unsafe_get r.buf (off + 2);
      s.s_timer.Event.fired <- BA1.unsafe_get r.buf (off + 3);
      s.s_timer.Event.count <- BA1.unsafe_get r.buf (off + 4)
  | 10 ->
      let off = consume t r in
      s.s_ctl.Event.opcode <- BA1.unsafe_get r.buf off;
      s.s_ctl.Event.arg <- BA1.unsafe_get r.buf (off + 1);
      s.s_ctl.Event.time <- BA1.unsafe_get r.buf (off + 2)
  | 11 ->
      let off = consume t r in
      s.s_link.Event.port <- BA1.unsafe_get r.buf off;
      s.s_link.Event.up <- BA1.unsafe_get r.buf (off + 1) <> 0;
      s.s_link.Event.time <- BA1.unsafe_get r.buf (off + 2)
  | 12 ->
      let off = consume t r in
      s.s_user.Event.tag <- BA1.unsafe_get r.buf off;
      s.s_user.Event.data <- BA1.unsafe_get r.buf (off + 1);
      s.s_user.Event.time <- BA1.unsafe_get r.buf (off + 2)
  | _ -> invalid_arg "Event_store.take: not a metadata event class");
  t.scratch.wrappers.(cls_ix)
