(** Traffic manager: per-port output queueing, scheduling and
    transmission, firing the buffer-related data-plane events of
    Table 1 into the architecture's event sink.

    Events fired (with the packet's [enq_meta]/[deq_meta] carried in
    the event metadata, as the paper's programming model specifies):

    - [Enqueue] when a packet is accepted into a queue;
    - [Overflow] when a packet is rejected (shared pool or per-queue
      limit exceeded) — the packet is dropped;
    - [Dequeue] when a packet leaves its queue to start transmission;
    - [Underflow] when that departure leaves the queue empty;
    - [Transmitted] when serialization completes and the packet is
      handed to [emit].

    Scheduling policies: FIFO across a single queue, strict priority
    across the per-port queues (lower qid = higher priority), or a PIFO
    ranked by [meta.priority]. *)

type policy = Fifo | Strict_priority | Pifo_sched

type config = {
  num_ports : int;
  queues_per_port : int;  (** ignored by [Pifo_sched] *)
  buffer_bytes : int;  (** shared pool (default 512 KiB) *)
  queue_limit_bytes : int option;  (** per-queue cap *)
  pifo_capacity : int;  (** entries per port PIFO *)
  policy : policy;
  port_rate_gbps : float;
}

val default_config : config

type t

val create :
  sched:Eventsim.Scheduler.t ->
  config:config ->
  emit:(port:int -> Netcore.Packet.t -> unit) ->
  events:Devents.Event_sink.t ->
  ?egress:(port:int -> Netcore.Packet.t -> Netcore.Packet.t option) ->
  unit ->
  t
(** [egress] runs at dequeue time (PSA egress processing); returning
    [None] drops the packet (counted, no Transmitted event). [events]
    receives buffer/transmit notifications as plain fields — wrap a
    boxed handler with {!Devents.Event_sink.of_fn} if needed. *)

val enqueue : t -> port:int -> Netcore.Packet.t -> bool
(** Route a packet to [port], queue [pkt.meta.qid]. [false] if it was
    dropped (Overflow fired). *)

val occupancy_bytes : t -> port:int -> int
val occupancy_pkts : t -> port:int -> int
val total_occupancy_bytes : t -> int
val enqueues : t -> int
val dequeues : t -> int
val transmitted : t -> int
val drops : t -> int
(** Overflow drops. *)

val egress_drops : t -> int
val config : t -> config
val quiescent : t -> bool
(** No queued or in-flight packets. *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish enqueue/dequeue/transmit/drop counters, shared-buffer
    occupancy and high-water marks, and per-port (and per-queue)
    occupancy gauges into [reg]. Idempotent; a no-op when [reg] is
    disabled. *)
