module Scheduler = Eventsim.Scheduler
module Pipeline = Pisa.Pipeline
module Packet = Netcore.Packet

type packet_kind = Ingress | Recirculated | Generated

(* One reused scratch carrier per merger: [admit] refills it in place
   and hands it to [process], so steady-state admission allocates
   nothing. Consumers must copy anything they retain. *)
type carrier = {
  mutable kind : packet_kind;
  mutable pkt : Packet.t; (* [Packet.nil] for an empty carrier *)
  events : Event.t array; (* first [n_events] slots valid, priority order *)
  mutable n_events : int;
}

type config = { event_queue_capacity : int; max_events_per_carrier : int }

let default_config = { event_queue_capacity = 64; max_events_per_carrier = 4 }

let packet_queue_capacity = 256

(* The drain order for metadata events, as class indices. *)
let priority_ix =
  Array.of_list
    (List.map Event.cls_index
       [
         Event.Link_status_change;
         Event.Timer_expiration;
         Event.Control_plane;
         Event.Buffer_overflow;
         Event.Buffer_underflow;
         Event.Buffer_dequeue;
         Event.Buffer_enqueue;
         Event.Packet_transmitted;
         Event.User_event;
       ])

(* A bounded FIFO: each packet kind's input queue and each event
   class's queue. Its [capacity + 1] slots are built at the first
   accepted push, so a switch that never queues an event of a class
   builds nothing for it. An event ring's slots are the events handlers
   read: an offer writes its fields into a free slot, and admission
   hands the slot over as is. While [count <= capacity], the one slot
   no push can reach is the one taken last, so an admitted event stays
   intact until the next admission of its class. *)
type 'a ring = {
  mutable slots : 'a array; (* [||] until the first accepted push *)
  blank : unit -> 'a; (* builds one slot *)
  capacity : int;
  mutable head : int; (* slot of the oldest element *)
  mutable count : int;
  mutable drops : int;
  mutable hwm : int;
}

let ring ~capacity blank = { slots = [||]; blank; capacity; head = 0; count = 0; drops = 0; hwm = 0 }

(* Indices that name no slot: [push] returns [full] when the ring is
   full (the drop counted), and an offer the shedder takes gets
   [absorbed]. *)
let full = -1
let absorbed = -2

(* Count one more element and return the slot it goes in. *)
let push r =
  if r.count = r.capacity then begin
    r.drops <- r.drops + 1;
    full
  end
  else begin
    if Array.length r.slots = 0 then r.slots <- Array.init (r.capacity + 1) (fun _ -> r.blank ());
    let i = r.head + r.count in
    r.count <- r.count + 1;
    if r.count > r.hwm then r.hwm <- r.count;
    if i > r.capacity then i - r.capacity - 1 else i
  end

(* Uncount the oldest element and return its slot; the caller has
   checked [count > 0]. *)
let take r =
  let i = r.head in
  r.head <- (if i = r.capacity then 0 else i + 1);
  r.count <- r.count - 1;
  i

let blank_buffer () =
  {
    Event.port = 0;
    qid = 0;
    pkt_len = 0;
    flow_id = 0;
    meta = Array.make Packet.meta_slots 0;
    occupancy_pkts = 0;
    occupancy_bytes = 0;
    time = 0;
  }

(* A zeroed event of class [cls]: what its ring's slots start as. *)
let blank_event cls () =
  match cls with
  | Event.Buffer_enqueue -> Event.Enqueue (blank_buffer ())
  | Event.Buffer_dequeue -> Event.Dequeue (blank_buffer ())
  | Event.Buffer_overflow -> Event.Overflow (blank_buffer ())
  | Event.Buffer_underflow -> Event.Underflow { Event.port = 0; qid = 0; time = 0 }
  | Event.Packet_transmitted -> Event.Transmitted { Event.port = 0; pkt_len = 0; flow_id = 0; time = 0 }
  | Event.Timer_expiration ->
      Event.Timer { Event.id = 0; period = 0; scheduled = 0; fired = 0; count = 0 }
  | Event.Link_status_change -> Event.Link_change { Event.port = 0; up = false; time = 0 }
  | Event.Control_plane -> Event.Control { Event.opcode = 0; arg = 0; time = 0 }
  | Event.User_event -> Event.User { Event.tag = 0; data = 0; time = 0 }
  | Event.Ingress_packet | Event.Egress_packet | Event.Recirculated_packet | Event.Generated_packet
    ->
      invalid_arg "Event_merger: packets queue apart from events"

type t = {
  sched : Scheduler.t;
  pipeline : Pipeline.t;
  config : config;
  process : carrier -> exit_time:Eventsim.Sim_time.t -> unit;
  (* Packet input queues by kind priority: ingress, recirculated,
     generated. *)
  packets : Packet.t ring array;
  events : Event.t ring array; (* by class index; packet classes stay empty *)
  mutable packets_waiting : int;
  mutable events_waiting : int;
  carrier : carrier;
  mutable admission_armed : bool;
  mutable admit_cb : unit -> unit; (* persistent; posted once per carrier *)
  mutable empty_carriers : int;
  mutable piggybacked : int;
  mutable shedder : Resil.Shedder.t option;
  mutable shed_events : int;
  mutable shed_packets : int;
}

let kind_index = function Ingress -> 0 | Recirculated -> 1 | Generated -> 2
let kind_of_index = function 0 -> Ingress | 1 -> Recirculated | _ -> Generated

let packets_waiting t = t.packets_waiting
let events_waiting t = t.events_waiting
let has_work t = t.packets_waiting > 0 || t.events_waiting > 0

(* Move the oldest packet of the highest-priority non-empty kind from
   [k] on onto the carrier ([Packet.nil] when all are empty). *)
let rec fill_packet t k =
  if k = Array.length t.packets then t.carrier.pkt <- Packet.nil
  else begin
    let r = t.packets.(k) in
    if r.count = 0 then fill_packet t (k + 1)
    else begin
      let i = take r in
      t.carrier.kind <- kind_of_index k;
      t.carrier.pkt <- r.slots.(i);
      r.slots.(i) <- Packet.nil;
      t.packets_waiting <- t.packets_waiting - 1
    end
  end

(* Collect up to the metadata-bus limit of events, one per class, in
   priority order. *)
let collect_events t =
  let c = t.carrier in
  c.n_events <- 0;
  let limit = t.config.max_events_per_carrier in
  let n = Array.length priority_ix in
  let i = ref 0 in
  while c.n_events < limit && !i < n do
    let r = t.events.(Array.unsafe_get priority_ix !i) in
    if r.count > 0 then begin
      c.events.(c.n_events) <- r.slots.(take r);
      c.n_events <- c.n_events + 1;
      t.events_waiting <- t.events_waiting - 1
    end;
    incr i
  done

let rec arm t =
  if (not t.admission_armed) && has_work t then begin
    t.admission_armed <- true;
    let at = Pipeline.earliest_admission t.pipeline in
    Scheduler.post ~cls:Scheduler.Merger_admit t.sched ~at t.admit_cb
  end

and admit t =
  t.admission_armed <- false;
  if has_work t then begin
    let c = t.carrier in
    fill_packet t 0;
    collect_events t;
    let has_packet = not (Packet.is_nil c.pkt) in
    if has_packet then t.piggybacked <- t.piggybacked + c.n_events
    else if c.n_events > 0 then t.empty_carriers <- t.empty_carriers + 1;
    if has_packet || c.n_events > 0 then begin
      let exit_time = Pipeline.admit t.pipeline ~has_packet in
      t.process c ~exit_time;
      c.pkt <- Packet.nil (* release the reference *)
    end;
    arm t
  end

let create ~sched ~pipeline ?(config = default_config) ~process () =
  if config.max_events_per_carrier <= 0 then
    invalid_arg "Event_merger: max_events_per_carrier must be positive";
  if config.event_queue_capacity <= 0 then
    invalid_arg "Event_merger: event_queue_capacity must be positive";
  let t =
    {
      sched;
      pipeline;
      config;
      process;
      packets =
        Array.init 3 (fun _ -> ring ~capacity:packet_queue_capacity (fun () -> Packet.nil));
      events =
        Array.of_list
          (List.map (fun cls -> ring ~capacity:config.event_queue_capacity (blank_event cls))
             Event.all_classes);
      packets_waiting = 0;
      events_waiting = 0;
      carrier =
        {
          kind = Ingress;
          pkt = Packet.nil;
          events = Array.make config.max_events_per_carrier (blank_event Event.Buffer_underflow ());
          n_events = 0;
        };
      admission_armed = false;
      admit_cb = (fun () -> ());
      empty_carriers = 0;
      piggybacked = 0;
      shedder = None;
      shed_events = 0;
      shed_packets = 0;
    }
  in
  t.admit_cb <- (fun () -> admit t);
  t

let kind_cls_index = function
  | Ingress -> Event.cls_index Event.Ingress_packet
  | Recirculated -> Event.cls_index Event.Recirculated_packet
  | Generated -> Event.cls_index Event.Generated_packet

(* With no shedder installed (the default) offers are untouched, so the
   seed behaviour is byte-identical. *)
let shed t ~cls =
  match t.shedder with
  | None -> false
  | Some s -> Resil.Shedder.offer s ~depth:(t.packets_waiting + t.events_waiting) ~cls

let offer_packet t kind pkt =
  if shed t ~cls:(kind_cls_index kind) then begin
    t.shed_packets <- t.shed_packets + 1;
    false
  end
  else begin
    let r = t.packets.(kind_index kind) in
    let i = push r in
    if i <> full then begin
      r.slots.(i) <- pkt;
      t.packets_waiting <- t.packets_waiting + 1;
      arm t
    end;
    i <> full
  end

(* {2 Event offers}

   [claim] picks the slot an offer of class [cls_ix] writes its fields
   into; [queued] then counts it and returns the offer's result, which
   is [false] only when the class ring was full. *)

let claim t cls_ix =
  if shed t ~cls:cls_ix then begin
    t.shed_events <- t.shed_events + 1;
    absorbed
  end
  else push t.events.(cls_ix)

let queued t i =
  if i >= 0 then begin
    t.events_waiting <- t.events_waiting + 1;
    arm t
  end;
  i <> full

let ix_enqueue = Event.cls_index Event.Buffer_enqueue
let ix_dequeue = Event.cls_index Event.Buffer_dequeue
let ix_overflow = Event.cls_index Event.Buffer_overflow
let ix_underflow = Event.cls_index Event.Buffer_underflow
let ix_transmitted = Event.cls_index Event.Packet_transmitted

let offer_buffer t ~cls_ix ~port ~qid ~pkt_len ~flow_id ~meta ~occupancy_pkts ~occupancy_bytes
    ~time =
  if cls_ix <> ix_enqueue && cls_ix <> ix_dequeue && cls_ix <> ix_overflow then
    invalid_arg "Event_merger.offer_buffer: cls_ix is not a buffer class";
  if Array.length meta <> Packet.meta_slots then
    invalid_arg "Event_merger.offer_buffer: meta is not Packet.meta_slots long";
  let i = claim t cls_ix in
  (if i >= 0 then
     match t.events.(cls_ix).slots.(i) with
     | Event.Enqueue b | Event.Dequeue b | Event.Overflow b ->
         b.Event.port <- port;
         b.Event.qid <- qid;
         b.Event.pkt_len <- pkt_len;
         b.Event.flow_id <- flow_id;
         b.Event.occupancy_pkts <- occupancy_pkts;
         b.Event.occupancy_bytes <- occupancy_bytes;
         b.Event.time <- time;
         for k = 0 to Packet.meta_slots - 1 do
           Array.unsafe_set b.Event.meta k (Array.unsafe_get meta k)
         done
     | _ -> assert false);
  queued t i

let offer_underflow t ~port ~qid ~time =
  let i = claim t ix_underflow in
  (if i >= 0 then
     match t.events.(ix_underflow).slots.(i) with
     | Event.Underflow u ->
         u.Event.port <- port;
         u.Event.qid <- qid;
         u.Event.time <- time
     | _ -> assert false);
  queued t i

let offer_transmitted t ~port ~pkt_len ~flow_id ~time =
  let i = claim t ix_transmitted in
  (if i >= 0 then
     match t.events.(ix_transmitted).slots.(i) with
     | Event.Transmitted x ->
         x.Event.port <- port;
         x.Event.pkt_len <- pkt_len;
         x.Event.flow_id <- flow_id;
         x.Event.time <- time
     | _ -> assert false);
  queued t i

let offer_event t ev =
  match ev with
  | Event.Enqueue b | Event.Dequeue b | Event.Overflow b ->
      offer_buffer t ~cls_ix:(Event.cls_index (Event.cls_of ev)) ~port:b.Event.port
        ~qid:b.Event.qid ~pkt_len:b.Event.pkt_len ~flow_id:b.Event.flow_id ~meta:b.Event.meta
        ~occupancy_pkts:b.Event.occupancy_pkts ~occupancy_bytes:b.Event.occupancy_bytes
        ~time:b.Event.time
  | Event.Underflow u -> offer_underflow t ~port:u.Event.port ~qid:u.Event.qid ~time:u.Event.time
  | Event.Transmitted x ->
      offer_transmitted t ~port:x.Event.port ~pkt_len:x.Event.pkt_len ~flow_id:x.Event.flow_id
        ~time:x.Event.time
  | Event.Timer _ | Event.Link_change _ | Event.Control _ | Event.User _ ->
      let cls_ix = Event.cls_index (Event.cls_of ev) in
      let i = claim t cls_ix in
      (if i >= 0 then
         match (ev, t.events.(cls_ix).slots.(i)) with
         | Event.Timer e, Event.Timer s ->
             s.Event.id <- e.Event.id;
             s.Event.period <- e.Event.period;
             s.Event.scheduled <- e.Event.scheduled;
             s.Event.fired <- e.Event.fired;
             s.Event.count <- e.Event.count
         | Event.Link_change e, Event.Link_change s ->
             s.Event.port <- e.Event.port;
             s.Event.up <- e.Event.up;
             s.Event.time <- e.Event.time
         | Event.Control e, Event.Control s ->
             s.Event.opcode <- e.Event.opcode;
             s.Event.arg <- e.Event.arg;
             s.Event.time <- e.Event.time
         | Event.User e, Event.User s ->
             s.Event.tag <- e.Event.tag;
             s.Event.data <- e.Event.data;
             s.Event.time <- e.Event.time
         | _ -> assert false);
      queued t i

let set_shedder t s = t.shedder <- Some s
let shedder t = t.shedder
let events_shed t = t.shed_events
let packets_shed t = t.shed_packets

(* The canonical watermark ladder, mapping §4's staleness trade-off to
   overload tiers: telemetry-ish aggregation events go first at [w],
   control-ish events at [2w], packets only at [4w]. Overflow and
   link-change events are never shed — losing them hides the very
   conditions degradation is supposed to surface. *)
let shed_config ~watermark =
  if watermark <= 0 then invalid_arg "Event_merger.shed_config: watermark must be positive";
  let ix = Event.cls_index in
  {
    Resil.Shedder.tiers =
      [
        {
          Resil.Shedder.name = "telemetry";
          classes =
            [
              ix Event.Packet_transmitted;
              ix Event.Buffer_enqueue;
              ix Event.Buffer_dequeue;
              ix Event.User_event;
            ];
          high = watermark;
          low = max 1 (watermark / 2);
        };
        {
          Resil.Shedder.name = "control";
          classes = [ ix Event.Buffer_underflow; ix Event.Timer_expiration; ix Event.Control_plane ];
          high = 2 * watermark;
          low = watermark;
        };
        {
          Resil.Shedder.name = "packets";
          classes =
            [ ix Event.Ingress_packet; ix Event.Recirculated_packet; ix Event.Generated_packet ];
          high = 4 * watermark;
          low = 2 * watermark;
        };
      ];
  }

let empty_carriers t = t.empty_carriers
let piggybacked_events t = t.piggybacked

let event_drops t =
  List.filter_map
    (fun cls ->
      let d = t.events.(Event.cls_index cls).drops in
      if d > 0 then Some (cls, d) else None)
    Event.all_classes

let packet_drops t = Array.fold_left (fun acc r -> acc + r.drops) 0 t.packets
let queue_high_watermark t cls = t.events.(Event.cls_index cls).hwm
