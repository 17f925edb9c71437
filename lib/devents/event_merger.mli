(** The Event Merger (Figure 4): gathers pending data-plane events and
    merges them into the pipeline.

    Each admission slot (one per pipeline cycle) carries at most one
    packet — an ingress arrival, a recirculated packet, or a generated
    packet, in that priority order — plus event metadata piggybacked
    onto it: at most one event per class per carrier, as each class has
    a fixed metadata field in the bus. If events are pending but no
    packet is available, the merger emits an {e empty carrier} (the
    paper's "empty packet"), which consumes a pipeline slot; E4
    measures when that starts to eat into line rate.

    Event classes drain highest-priority-first, in one fixed order
    that puts rare control-ish events first and high-volume buffer
    events after, matching the prototype: link change, timer, control
    plane, overflow, underflow, dequeue, enqueue, transmitted, user.
    Each packet kind's input queue holds 256 packets.

    Every queue is one bounded ring. An event class's ring holds
    [event_queue_capacity + 1] preallocated {!Event.t} values, built at
    the class's first accepted offer: an offer writes its fields into a
    free slot, and admission puts that slot's event on the carrier as
    is. The spare slot keeps an admitted event intact until the next
    admission of its class, even while its handler offers more events
    of that class. The carrier handed to [process] is a single reused
    record. Once a class's ring is built, neither an offer nor an
    admission allocates. *)

type packet_kind = Ingress | Recirculated | Generated

(** The merger's reused scratch carrier: valid only for the duration of
    the [process] callback, after which its packet slot is recycled.
    Each event on it stays intact until the next admission of its
    class. Copy anything you retain. *)
type carrier = {
  mutable kind : packet_kind;  (** meaningful only when [pkt] is not nil *)
  mutable pkt : Netcore.Packet.t;  (** {!Netcore.Packet.nil} for an empty carrier *)
  events : Event.t array;  (** slots [0 .. n_events-1] valid, in priority order *)
  mutable n_events : int;
}

type config = {
  event_queue_capacity : int;  (** per class (default 64) *)
  max_events_per_carrier : int;  (** metadata bus width (default 4) *)
}

val default_config : config

type t

val create :
  sched:Eventsim.Scheduler.t ->
  pipeline:Pisa.Pipeline.t ->
  ?config:config ->
  process:(carrier -> exit_time:Eventsim.Sim_time.t -> unit) ->
  unit ->
  t
(** [process] is called at admission time with the carrier; [exit_time]
    is when the carrier leaves the pipeline (admission + depth). *)

val offer_packet : t -> packet_kind -> Netcore.Packet.t -> bool
(** [false] when the input queue for that kind overflowed (packet lost,
    counted) or the shedder refused it (counted in {!packets_shed}). *)

val offer_event : t -> Event.t -> bool
(** [false] when that class's event queue overflowed (event lost,
    counted). A shed event returns [true] — it was deliberately
    absorbed, not lost to overflow — and is counted in
    {!events_shed}. Field values are copied into a slot of the class's
    ring; the event itself is not retained. *)

(** {1 Unboxed offers}

    Same semantics as {!offer_event} for the high-volume buffer and
    transmit classes, taking plain fields instead of a boxed event —
    these write straight into a ring slot and allocate nothing. [meta]
    is copied at offer time. *)

val offer_buffer :
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
(** [cls_ix] is the {!Event.cls_index} of [Buffer_enqueue],
    [Buffer_dequeue] or [Buffer_overflow], and [meta] is
    [Netcore.Packet.meta_slots] long.

    @raise Invalid_argument otherwise, before any queue or counter
    changes. *)

val offer_underflow : t -> port:int -> qid:int -> time:int -> bool
val offer_transmitted : t -> port:int -> pkt_len:int -> flow_id:int -> time:int -> bool

(** {1 Graceful degradation}

    With a {!Resil.Shedder} installed, every offer consults the current
    backlog (packets + events waiting) against the shedder's watermark
    tiers and discards whole classes under overload. No shedder (the
    default) means no behavioural change. *)

val shed_config : watermark:int -> Resil.Shedder.config
(** The standard three-tier ladder over a base [watermark] [w]:
    telemetry events (transmitted / enqueue / dequeue / user) shed at
    depth [w], control-ish events (underflow / timer / control-plane)
    at [2w], packets (ingress / recirculated / generated) at [4w].
    Overflow and link-change events are never shed. *)

val set_shedder : t -> Resil.Shedder.t -> unit
val shedder : t -> Resil.Shedder.t option
val events_shed : t -> int
val packets_shed : t -> int

val packets_waiting : t -> int
val events_waiting : t -> int
val empty_carriers : t -> int
val piggybacked_events : t -> int
val event_drops : t -> (Event.cls * int) list
(** Classes with at least one lost event. *)

val packet_drops : t -> int
val queue_high_watermark : t -> Event.cls -> int
