module Event = Devents.Event
module Packet = Netcore.Packet
module Program = Evcore.Program
module Efsm = Pisa.Efsm

type t = {
  c : Compile.t;
  mutable efsm : Efsm.t option;
  mutable matches : int;
  mutable log : (int * int) list;  (* (key, time), newest first *)
}

let efsm t = Option.get t.efsm
let compiled t = t.c
let matches t = t.matches
let match_log t = List.rev t.log

let meta_attr = function
  | Event.Enqueue ev | Event.Dequeue ev | Event.Overflow ev -> ev.Event.occupancy_pkts
  | Event.Underflow _ -> 0
  | Event.Transmitted ev -> ev.Event.pkt_len
  | Event.Timer ev -> ev.Event.id
  | Event.Link_change ev -> if ev.Event.up then 1 else 0
  | Event.Control ev -> ev.Event.opcode
  | Event.User ev -> ev.Event.data

let meta_key = function
  | Event.Enqueue ev | Event.Dequeue ev | Event.Overflow ev -> ev.Event.port
  | Event.Underflow ev -> ev.Event.port
  | Event.Transmitted ev -> ev.Event.port
  | Event.Timer ev -> ev.Event.id
  | Event.Link_change ev -> ev.Event.port
  | Event.Control ev -> ev.Event.opcode
  | Event.User ev -> ev.Event.tag

let program ?(slots = 1024) ?timeout ?sweep_period ?pkt_attr ?pkt_key ?forward ?on_match ~name
    ~compiled:c () =
  let pkt_attr = Option.value pkt_attr ~default:Packet.len in
  let forward =
    Option.value forward
      ~default:(fun _ctx (pkt : Packet.t) -> Program.Forward pkt.Packet.meta.Packet.ingress_port)
  in
  let sweep_period = match sweep_period with Some p -> Some p | None -> timeout in
  let t = { c; efsm = None; matches = 0; log = [] } in
  let used = Pattern.classes c.Compile.pattern in
  let uses cls = List.exists (Event.cls_equal cls) used in
  let spec ctx =
    let det =
      Compile.efsm ~alloc:ctx.Program.alloc ?timeout ~entries:slots ~name c ()
    in
    t.efsm <- Some det;
    let feed ctx ~key ~cls ~attr =
      ctx.Program.consume_budget 1;
      let key = key land max_int in
      let input = Pattern.encode { Pattern.cls; attr } in
      let o = Efsm.step det ~now:(ctx.Program.now ()) ~key ~input in
      if Compile.is_match c o then begin
        t.matches <- t.matches + 1;
        let time = ctx.Program.now () in
        t.log <- (key, time) :: t.log;
        match on_match with None -> () | Some f -> f ~key ~time
      end
    in
    let pkt_key_default (pkt : Packet.t) = pkt.Packet.meta.Packet.ingress_port in
    let feed_pkt ctx cls pkt =
      let key = match pkt_key with Some f -> f pkt | None -> pkt_key_default pkt in
      feed ctx ~key ~cls ~attr:(pkt_attr pkt)
    in
    let feed_meta ctx cls ev = feed ctx ~key:(meta_key ev) ~cls ~attr:(meta_attr ev) in
    let pkt_handler cls ctx pkt =
      if uses cls then feed_pkt ctx cls pkt;
      forward ctx pkt
    in
    let tick_timer = ctx.Program.add_timer ~period:c.Compile.tick_period in
    let sweep_timer =
      match sweep_period with
      | Some p when timeout <> None -> Some (ctx.Program.add_timer ~period:p)
      | _ -> None
    in
    let timer ctx (ev : Event.timer_event) =
      if ev.Event.id = tick_timer then begin
        ctx.Program.consume_budget 1;
        Efsm.step_all det ~input:Pattern.tick_input
      end
      else if sweep_timer = Some ev.Event.id then
        ignore (Efsm.sweep det ~now:(ctx.Program.now ()) : int)
      else if uses Event.Timer_expiration then feed_meta ctx Event.Timer_expiration (Event.Timer ev)
    in
    let opt cls f = if uses cls then Some f else None in
    let egress ctx ~port pkt =
      (let key =
         match pkt_key with Some f -> f pkt | None -> port
       in
       feed ctx ~key ~cls:Event.Egress_packet ~attr:(pkt_attr pkt));
      Some pkt
    in
    {
      Program.name;
      ingress = pkt_handler Event.Ingress_packet;
      (* Explicit so recirculated/generated packets are not misfed
         through the ingress handler's class. *)
      recirculated = Some (pkt_handler Event.Recirculated_packet);
      generated = Some (pkt_handler Event.Generated_packet);
      egress = opt Event.Egress_packet egress;
      enqueue = opt Event.Buffer_enqueue (fun ctx ev -> feed_meta ctx Event.Buffer_enqueue (Event.Enqueue ev));
      dequeue = opt Event.Buffer_dequeue (fun ctx ev -> feed_meta ctx Event.Buffer_dequeue (Event.Dequeue ev));
      overflow = opt Event.Buffer_overflow (fun ctx ev -> feed_meta ctx Event.Buffer_overflow (Event.Overflow ev));
      underflow =
        opt Event.Buffer_underflow (fun ctx ev ->
            feed_meta ctx Event.Buffer_underflow (Event.Underflow ev));
      transmitted =
        opt Event.Packet_transmitted (fun ctx ev ->
            feed_meta ctx Event.Packet_transmitted (Event.Transmitted ev));
      timer = Some timer;
      link_change =
        opt Event.Link_status_change (fun ctx ev ->
            feed_meta ctx Event.Link_status_change (Event.Link_change ev));
      control = opt Event.Control_plane (fun ctx ev -> feed_meta ctx Event.Control_plane (Event.Control ev));
      user = opt Event.User_event (fun ctx ev -> feed_meta ctx Event.User_event (Event.User ev));
    }
  in
  (spec, t)
