(** The switch: a PISA pipeline, an event merger, a traffic manager, a
    timer unit and a packet generator composed per Figure 4, running
    one installed {!Program}.

    The same module implements every architecture — {!Arch.t} decides
    which event classes reach the program and which features
    ([add_timer], [configure_pktgen], [Recirculate]) are available —
    so event-driven and baseline switches are directly comparable.

    Event flow: hardware blocks fire events ([fired] counts them); an
    event is offered to the {!Devents.Event_merger} only when the
    architecture supports its class {e and} the program subscribed to
    it; the merger admits carriers into the pipeline one per cycle; at
    admission the program's handlers run; packet decisions take effect
    when the carrier exits the pipeline. *)

type t

type config = {
  arch : Arch.t;
  num_ports : int;
  state_mode : Devents.Shared_register.mode;
  clock_period : Eventsim.Sim_time.t;
  merger_config : Devents.Event_merger.config;
  tm_config : Tmgr.Traffic_manager.config;  (** [num_ports] is overridden *)
  seed : int;
  resil : Resil.Supervisor.config;  (** supervision of every handler *)
  shed_watermark : int option;  (** merger shedding base watermark; [None] = off *)
}

val default_config : Arch.t -> config
(** 4 ports at 10 Gb/s (NetFPGA SUME), 200 MHz pipeline, aggregated
    state mode, 512 KiB buffer. The pipeline is always
    {!Pisa.Pipeline.default_depth} (16) cycles deep and timers fire on
    the timer unit's 100 ns grid. Supervision follows
    [Resil.Policy.default] (read at call time); shedding follows
    [Resil.Shedder.default_watermark] (off unless set). *)

val create :
  sched:Eventsim.Scheduler.t -> ?id:int -> config:config -> program:Program.spec -> unit -> t

(** {1 Data path} *)

val inject : t -> port:int -> Netcore.Packet.t -> unit
(** An external packet arrives on [port]. *)

val inject_from_control_plane : t -> Netcore.Packet.t -> unit
(** A packet the control plane pushes into the pipeline (how baseline
    architectures emit probes). *)

val set_port_tx : t -> port:int -> (Netcore.Packet.t -> unit) -> unit
(** Wire a port's transmit side (to a link, a host, or a sink).
    Unwired ports discard and count. *)

val link_status : t -> port:int -> up:bool -> unit
(** PHY status change on [port] (called by the link); fires a Link
    Status Change event. *)

val control_event : t -> opcode:int -> arg:int -> unit
(** Fire a Control-Plane Triggered event into the pipeline. *)

val set_subscribed : t -> Devents.Event.cls -> bool -> unit
(** De-register / re-register the program's handler for a metadata
    event class mid-run (control-plane churn). Re-registration is
    bounded by the install-time mask: a class the architecture does not
    support or the program never defined a handler for stays off. *)

val subscription_toggles : t -> int
(** Effective [set_subscribed] transitions performed. *)

val on_notification : t -> (time:int -> string -> unit) -> unit
(** Observe [notify_monitor] messages from the program. *)

val on_link_change : t -> (port:int -> up:bool -> unit) -> unit
(** Observe PHY link transitions on this switch (called from
    {!link_status} on an actual status change, before the program's
    [Link_change] handler fires). This is how an external controller —
    e.g. [Netupd.Controller] — sees data-plane link events without
    occupying the program's handler slot. *)

(** {1 Introspection} *)

val program_name : t -> string
val ctx : t -> Program.ctx
val alloc : t -> Pisa.Register_alloc.t
val pipeline : t -> Pisa.Pipeline.t
val tm : t -> Tmgr.Traffic_manager.t
val merger : t -> Devents.Event_merger.t
val num_ports : t -> int

val fired : t -> Devents.Event.cls -> int
(** Events of a class generated by the hardware blocks (before
    support/subscription masking). *)

val handled : t -> Devents.Event.cls -> int
(** Events of a class actually delivered to a program handler. *)

val program_drops : t -> int
(** Packets the program decided to drop. *)

val unsupported_actions : t -> int
(** Decisions (e.g. [Recirculate]) the architecture could not honour;
    the packet is dropped and counted here and in {!program_drops}. *)

val unrouted : t -> int
(** Packets sent out of an unwired port. *)

val recirculations : t -> int
val cp_injections : t -> int
val notification_count : t -> int
val notifications : t -> (int * string) list
(** Most recent notifications (bounded), oldest first. *)

(** {1 Resilience}

    Every handler invocation — the packet pipeline, all metadata event
    classes, the egress stage and monitor callbacks — runs under a
    {!Resil.Supervisor} guard configured by [config.resil]. *)

val supervisor : t -> Resil.Supervisor.t

val handler_key : t -> Devents.Event.cls -> Resil.Supervisor.key
(** The supervision key guarding a class's handler — the hook fault
    injectors use to arm crashes and slowdowns. *)

val supervised_drops : t -> int
(** Packets lost because their pipeline handler was quarantined or
    failed (egress losses are counted by the TM instead). *)

val packets_dropped : t -> int
(** Every packet the switch lost, each once: program drops
    (unsupported actions included), unrouted packets, supervised drops,
    traffic-manager overflow and egress drops, and the merger's packet
    drops and sheds — the switch's side of a packet-conservation book. *)

val invariant_checks : t -> Resil.Invariants.t -> unit
(** Register the switch's standard runtime invariants with a checker:
    packet conservation (packets accounted for never exceed packets
    offered), shared-buffer occupancy within capacity, and timer
    monotonicity. *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish the switch's series into [reg], labelled by switch id:
    per-event-class fired/handled counts and merger queue high-water
    marks, drop/recirculation/notification counters, merger carrier and
    event-loss statistics, pipeline admission counts, and the traffic
    manager's series (via {!Tmgr.Traffic_manager.export_metrics}).
    Idempotent; a no-op when [reg] is disabled. *)
