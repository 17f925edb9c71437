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

type t = {
  sched : Scheduler.t;
  pipeline : Pipeline.t;
  config : config;
  process : carrier -> exit_time:Eventsim.Sim_time.t -> unit;
  (* Packet input queues by kind priority: ingress, recirculated,
     generated. *)
  pkt_queues : Packet.t Event_queue.t array;
  store : Event_store.t; (* queued metadata events, off-heap SoA rings *)
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

(* Manual loop: [Array.fold_left] makes an indirect call per queue, and
   this runs two or three times per admitted carrier ([has_work] from
   both [admit] and [arm], plus shedder depth probes). *)
let packets_waiting t =
  let qs = t.pkt_queues in
  let acc = ref 0 in
  for i = 0 to Array.length qs - 1 do
    acc := !acc + Event_queue.length (Array.unsafe_get qs i)
  done;
  !acc
let events_waiting t = Event_store.total t.store
let has_work t = packets_waiting t > 0 || events_waiting t > 0

(* Refill the scratch carrier's packet slot from the highest-priority
   non-empty kind queue ([Packet.nil] when all are empty). *)
let fill_packet t =
  let c = t.carrier in
  let rec go k =
    if k >= Array.length t.pkt_queues then c.pkt <- Packet.nil
    else begin
      let pkt = Event_queue.pop_or t.pkt_queues.(k) ~default:Packet.nil in
      if Packet.is_nil pkt then go (k + 1)
      else begin
        c.kind <- kind_of_index k;
        c.pkt <- pkt
      end
    end
  in
  go 0

(* Collect up to the metadata-bus limit of events, one per class, in
   priority order. Each collected event decodes into its class's
   scratch record, and a carrier holds at most one event per class, so
   the slots never alias. *)
let collect_events t =
  let c = t.carrier in
  c.n_events <- 0;
  let limit = t.config.max_events_per_carrier in
  let n = Array.length priority_ix in
  let i = ref 0 in
  while c.n_events < limit && !i < n do
    let ix = Array.unsafe_get priority_ix !i in
    if Event_store.length t.store ~cls_ix:ix > 0 then begin
      c.events.(c.n_events) <- Event_store.take t.store ~cls_ix:ix;
      c.n_events <- c.n_events + 1
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
    fill_packet t;
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
  (* Inert filler for the carrier's event slots; process only reads
     slots below [n_events]. *)
  let filler = Event.Underflow { Event.port = 0; qid = 0; time = 0 } in
  let t =
    {
      sched;
      pipeline;
      config;
      process;
      pkt_queues =
        Array.init 3 (fun _ -> Event_queue.create ~capacity:packet_queue_capacity);
      store = Event_store.create ~capacity:config.event_queue_capacity ();
      carrier =
        {
          kind = Ingress;
          pkt = Packet.nil;
          events = Array.make config.max_events_per_carrier filler;
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
  | Some s -> Resil.Shedder.offer s ~depth:(packets_waiting t + events_waiting t) ~cls

let offer_packet t kind pkt =
  if shed t ~cls:(kind_cls_index kind) then begin
    t.shed_packets <- t.shed_packets + 1;
    false
  end
  else begin
    let ok = Event_queue.push t.pkt_queues.(kind_index kind) pkt in
    if ok then arm t;
    ok
  end

(* {2 Unboxed event offers (the traffic-manager hot path)} *)

let offer_buffer t ~cls_ix ~port ~qid ~pkt_len ~flow_id ~meta ~occupancy_pkts ~occupancy_bytes
    ~time =
  if shed t ~cls:cls_ix then begin
    t.shed_events <- t.shed_events + 1;
    true
  end
  else begin
    let ok =
      Event_store.push_buffer t.store ~cls_ix ~port ~qid ~pkt_len ~flow_id ~meta ~occupancy_pkts
        ~occupancy_bytes ~time
    in
    if ok then arm t;
    ok
  end

let offer_underflow t ~port ~qid ~time =
  if shed t ~cls:(Event.cls_index Event.Buffer_underflow) then begin
    t.shed_events <- t.shed_events + 1;
    true
  end
  else begin
    let ok = Event_store.push_underflow t.store ~port ~qid ~time in
    if ok then arm t;
    ok
  end

let offer_transmitted t ~port ~pkt_len ~flow_id ~time =
  if shed t ~cls:(Event.cls_index Event.Packet_transmitted) then begin
    t.shed_events <- t.shed_events + 1;
    true
  end
  else begin
    let ok = Event_store.push_transmitted t.store ~port ~pkt_len ~flow_id ~time in
    if ok then arm t;
    ok
  end

let offer_event t ev =
  if shed t ~cls:(Event.cls_ix_of ev) then begin
    t.shed_events <- t.shed_events + 1;
    true
  end
  else begin
    let ok = Event_store.push t.store ev in
    if ok then arm t;
    ok
  end

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
      let d = Event_store.dropped t.store ~cls_ix:(Event.cls_index cls) in
      if d > 0 then Some (cls, d) else None)
    Event.all_classes

let packet_drops t = Array.fold_left (fun acc q -> acc + Event_queue.dropped q) 0 t.pkt_queues
let queue_high_watermark t cls = Event_store.high_watermark t.store ~cls_ix:(Event.cls_index cls)
