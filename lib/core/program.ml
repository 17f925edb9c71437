module Event = Devents.Event

exception Unsupported of string

type decision = Forward of int | Multicast of int list | Drop | Recirculate

type ctx = {
  switch_id : int;
  num_ports : int;
  sched : Eventsim.Scheduler.t;
  alloc : Pisa.Register_alloc.t;
  pipeline : Pisa.Pipeline.t;
  state_mode : Devents.Shared_register.mode;
  rng : Stats.Rng.t;
  add_timer : period:Eventsim.Sim_time.t -> int;
  cancel_timer : int -> unit;
  configure_pktgen :
    period:Eventsim.Sim_time.t -> ?count:int -> template:(int -> Netcore.Packet.t) -> unit -> unit;
  stop_pktgen : unit -> unit;
  emit_user_event : tag:int -> data:int -> unit;
  mirror_to_ingress : Netcore.Packet.t -> unit;
  notify_monitor : string -> unit;
  port_occupancy_bytes : int -> int;
  link_is_up : int -> bool;
  now : unit -> int;
  consume_budget : int -> unit;
}

let shared_register ctx ~name ~entries ~width =
  Devents.Shared_register.create ~alloc:ctx.alloc ~pipeline:ctx.pipeline ~mode:ctx.state_mode
    ~name ~entries ~width ()

type t = {
  name : string;
  ingress : ctx -> Netcore.Packet.t -> decision;
  recirculated : (ctx -> Netcore.Packet.t -> decision) option;
  generated : (ctx -> Netcore.Packet.t -> decision) option;
  egress : (ctx -> port:int -> Netcore.Packet.t -> Netcore.Packet.t option) option;
  enqueue : (ctx -> Event.buffer_event -> unit) option;
  dequeue : (ctx -> Event.buffer_event -> unit) option;
  overflow : (ctx -> Event.buffer_event -> unit) option;
  underflow : (ctx -> Event.underflow_event -> unit) option;
  transmitted : (ctx -> Event.transmit_event -> unit) option;
  timer : (ctx -> Event.timer_event -> unit) option;
  link_change : (ctx -> Event.link_event -> unit) option;
  control : (ctx -> Event.control_event -> unit) option;
  user : (ctx -> Event.user_event -> unit) option;
}

type spec = ctx -> t

let make ~name ~ingress ?recirculated ?generated ?egress ?enqueue ?dequeue ?overflow ?underflow
    ?transmitted ?timer ?link_change ?control ?user () =
  {
    name;
    ingress;
    recirculated;
    generated;
    egress;
    enqueue;
    dequeue;
    overflow;
    underflow;
    transmitted;
    timer;
    link_change;
    control;
    user;
  }

let subscriptions t =
  List.filter_map
    (fun (cls, present) -> if present then Some cls else None)
    [
      (Event.Buffer_enqueue, t.enqueue <> None);
      (Event.Buffer_dequeue, t.dequeue <> None);
      (Event.Buffer_overflow, t.overflow <> None);
      (Event.Buffer_underflow, t.underflow <> None);
      (Event.Packet_transmitted, t.transmitted <> None);
      (Event.Timer_expiration, t.timer <> None);
      (Event.Link_status_change, t.link_change <> None);
      (Event.Control_plane, t.control <> None);
      (Event.User_event, t.user <> None);
    ]

