module Packet = Netcore.Packet
module Tcp = Netcore.Tcp
module Flow = Netcore.Flow
module Program = Evcore.Program
module Efsm = Pisa.Efsm

(* Input word presented to the EFSM, classified from the parsed TCP
   header (RST > SYN > FIN priority; an ACK/PSH/payload segment is
   data). [input_non_tcp] matches no transition, so packets without a
   TCP header are always blocked — metadata marks cannot spoof a
   session. *)
let input_data = 0
let input_syn = 1
let input_fin = 2
let input_rst = 3
let input_non_tcp = 4
let s_new = 0
let s_syn = 1
let s_est = 2
let s_closed = 3

type t = {
  mutable efsm : Efsm.t option;
  mutable allowed : int;
  mutable blocked : int;
}

let efsm t = Option.get t.efsm
let allowed t = t.allowed
let blocked t = t.blocked

(* SYN opens, the handshake-completing ACK establishes, FIN closes and
   RST aborts; anything out of order has no matching transition (a
   guard miss) and the packet is blocked. r0 counts the session's
   forwarded packets; the SYN self-loop counts retransmits into r1. *)
let transitions =
  [
    {
      Efsm.from_state = s_new;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_syn);
      next_state = s_syn;
      actions = [ { Efsm.reg = 0; update = Efsm.Set (Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_syn;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_syn);
      next_state = s_syn;
      actions = [ { Efsm.reg = 1; update = Efsm.Sat_add (Efsm.Reg 1, Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_syn;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_data);
      next_state = s_est;
      actions = [ { Efsm.reg = 0; update = Efsm.Sat_add (Efsm.Reg 0, Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_syn;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_fin);
      next_state = s_closed;
      actions = [];
    };
    {
      Efsm.from_state = s_syn;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_rst);
      next_state = s_closed;
      actions = [];
    };
    {
      Efsm.from_state = s_est;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_data);
      next_state = s_est;
      actions = [ { Efsm.reg = 0; update = Efsm.Sat_add (Efsm.Reg 0, Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_est;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_fin);
      next_state = s_closed;
      actions = [ { Efsm.reg = 0; update = Efsm.Sat_add (Efsm.Reg 0, Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_est;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const input_rst);
      next_state = s_closed;
      actions = [];
    };
  ]

let key_of pkt =
  match Packet.flow pkt with Some flow -> Flow.pack flow land max_int | None -> 0

let input_of pkt =
  match pkt.Packet.l4 with
  | Packet.Tcp tcp ->
      let has f = tcp.Tcp.flags land f <> 0 in
      if has Tcp.flag_rst then input_rst
      else if has Tcp.flag_syn then input_syn
      else if has Tcp.flag_fin then input_fin
      else input_data
  | Packet.Udp _ | Packet.No_l4 -> input_non_tcp

let program ?(slots = 1024) ?timeout ~out_port () =
  let timeout = Option.value timeout ~default:(Eventsim.Sim_time.us 500) in
  let t = { efsm = None; allowed = 0; blocked = 0 } in
  let spec ctx =
    let fw =
      Efsm.create ~alloc:ctx.Program.alloc ~timeout ~name:"fw" ~entries:slots ~nregs:2
        ~transitions ()
    in
    t.efsm <- Some fw;
    let sweep_timer = ctx.Program.add_timer ~period:timeout in
    let ingress ctx pkt =
      ctx.Program.consume_budget 1;
      let o =
        Efsm.step fw ~now:(ctx.Program.now ()) ~key:(key_of pkt) ~input:(input_of pkt)
      in
      if o.Efsm.fired then begin
        t.allowed <- t.allowed + 1;
        Program.Forward (out_port pkt)
      end
      else begin
        t.blocked <- t.blocked + 1;
        Program.Drop
      end
    in
    let timer ctx (ev : Devents.Event.timer_event) =
      if sweep_timer = ev.Devents.Event.id then
        ignore (Efsm.sweep fw ~now:(ctx.Program.now ()) : int)
    in
    Program.make ~name:"stateful-fw" ~ingress ~timer ()
  in
  (spec, t)
