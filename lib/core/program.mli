(** The event-driven data-plane programming model (§2).

    A program is a record of event handlers — the OCaml rendering of an
    event-driven P4 program, one [control] block per event class. All
    handlers of one program share state through registers allocated
    from the context at install time:

    {[
      let microburst threshold : Program.spec =
       fun ctx ->
        let buf = Program.shared_register ctx ~name:"bufSize" ~entries:1024 ~width:32 in
        Program.make ~name:"microburst"
          ~ingress:(fun ctx pkt -> ...)
          ~enqueue:(fun _ctx ev -> Shared_register.event_add buf Enq_side ... )
          ()
    ]}

    The architecture calls a handler only if the target supports that
    event class; a program installed on a baseline architecture simply
    never sees buffer or timer events. *)

exception Unsupported of string
(** Raised when a program uses a feature (timers, packet generator,
    recirculation) its architecture does not provide. *)

(** What ingress-side packet processing decides. *)
type decision =
  | Forward of int  (** egress port *)
  | Multicast of int list
  | Drop
  | Recirculate  (** send back through the pipeline (if supported) *)

(** Capabilities handed to a program. All closures are wired by the
    switch at install time. *)
type ctx = {
  switch_id : int;
  num_ports : int;
  sched : Eventsim.Scheduler.t;
  alloc : Pisa.Register_alloc.t;
  pipeline : Pisa.Pipeline.t;
  state_mode : Devents.Shared_register.mode;
  rng : Stats.Rng.t;  (** for randomised algorithms (RED) *)
  add_timer : period:Eventsim.Sim_time.t -> int;
  cancel_timer : int -> unit;
  configure_pktgen :
    period:Eventsim.Sim_time.t -> ?count:int -> template:(int -> Netcore.Packet.t) -> unit -> unit;
  stop_pktgen : unit -> unit;
  emit_user_event : tag:int -> data:int -> unit;
  mirror_to_ingress : Netcore.Packet.t -> unit;
      (** Clone a packet back into the pipeline's recirculation input —
          the Tofino-style egress-to-ingress mirror (§6) used to
          {e emulate} dequeue events on architectures without them.
          Requires recirculation support. *)
  notify_monitor : string -> unit;
      (** Send a report to an external monitor (counted; contents
          inspectable in tests). *)
  port_occupancy_bytes : int -> int;  (** TM occupancy of a port *)
  link_is_up : int -> bool;
  now : unit -> int;
  consume_budget : int -> unit;
      (** Report [n] steps of work against the supervisor's per-handler
          watchdog budget; an over-budget handler raises (and is then
          handled per the switch's {!Resil.Policy.t}). A no-op outside
          a supervised invocation. *)
}

val shared_register :
  ctx -> name:string -> entries:int -> width:int -> Devents.Shared_register.t
(** Allocate a [shared_register] extern in the context's state mode. *)

type t = {
  name : string;
  ingress : ctx -> Netcore.Packet.t -> decision;
  recirculated : (ctx -> Netcore.Packet.t -> decision) option;
      (** defaults to [ingress] when the class is supported *)
  generated : (ctx -> Netcore.Packet.t -> decision) option;
      (** defaults to [ingress] when the class is supported *)
  egress : (ctx -> port:int -> Netcore.Packet.t -> Netcore.Packet.t option) option;
  enqueue : (ctx -> Devents.Event.buffer_event -> unit) option;
  dequeue : (ctx -> Devents.Event.buffer_event -> unit) option;
  overflow : (ctx -> Devents.Event.buffer_event -> unit) option;
  underflow : (ctx -> Devents.Event.underflow_event -> unit) option;
  transmitted : (ctx -> Devents.Event.transmit_event -> unit) option;
  timer : (ctx -> Devents.Event.timer_event -> unit) option;
  link_change : (ctx -> Devents.Event.link_event -> unit) option;
  control : (ctx -> Devents.Event.control_event -> unit) option;
  user : (ctx -> Devents.Event.user_event -> unit) option;
}

type spec = ctx -> t
(** A program factory: receives the install-time context, allocates its
    state, returns its handlers. *)

val make :
  name:string ->
  ingress:(ctx -> Netcore.Packet.t -> decision) ->
  ?recirculated:(ctx -> Netcore.Packet.t -> decision) ->
  ?generated:(ctx -> Netcore.Packet.t -> decision) ->
  ?egress:(ctx -> port:int -> Netcore.Packet.t -> Netcore.Packet.t option) ->
  ?enqueue:(ctx -> Devents.Event.buffer_event -> unit) ->
  ?dequeue:(ctx -> Devents.Event.buffer_event -> unit) ->
  ?overflow:(ctx -> Devents.Event.buffer_event -> unit) ->
  ?underflow:(ctx -> Devents.Event.underflow_event -> unit) ->
  ?transmitted:(ctx -> Devents.Event.transmit_event -> unit) ->
  ?timer:(ctx -> Devents.Event.timer_event -> unit) ->
  ?link_change:(ctx -> Devents.Event.link_event -> unit) ->
  ?control:(ctx -> Devents.Event.control_event -> unit) ->
  ?user:(ctx -> Devents.Event.user_event -> unit) ->
  unit ->
  t

val subscriptions : t -> Devents.Event.cls list
(** The metadata-event classes this program defined handlers for. *)
