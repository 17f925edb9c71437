module Packet = Netcore.Packet
module Program = Evcore.Program
module Efsm = Pisa.Efsm

let tick = 1
let s_conform = 0
let s_throttled = 1

(* r0 accumulates bytes within the window, r1 counts throttled drops,
   r2 counts throttle episodes. The timer broadcasts [tick] to every
   flow (Efsm.step_all), resetting the window; data packets present
   their length (always > tick, so the two inputs cannot collide). *)
let transitions ~limit_bytes =
  [
    {
      Efsm.from_state = s_conform;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const tick);
      next_state = s_conform;
      actions = [ { Efsm.reg = 0; update = Efsm.Set (Efsm.Const 0) } ];
    };
    {
      Efsm.from_state = s_throttled;
      guard = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const tick);
      next_state = s_conform;
      actions = [ { Efsm.reg = 0; update = Efsm.Set (Efsm.Const 0) } ];
    };
    {
      Efsm.from_state = s_conform;
      guard = Efsm.Cmp (Efsm.Ge, Efsm.Reg 0, Efsm.Const limit_bytes);
      next_state = s_throttled;
      actions = [ { Efsm.reg = 2; update = Efsm.Sat_add (Efsm.Reg 2, Efsm.Const 1) } ];
    };
    {
      Efsm.from_state = s_conform;
      guard = Efsm.Always;
      next_state = s_conform;
      actions = [ { Efsm.reg = 0; update = Efsm.Sat_add (Efsm.Reg 0, Efsm.Input) } ];
    };
    {
      Efsm.from_state = s_throttled;
      guard = Efsm.Always;
      next_state = s_throttled;
      actions = [ { Efsm.reg = 1; update = Efsm.Sat_add (Efsm.Reg 1, Efsm.Const 1) } ];
    };
  ]

let program ?(slots = 1024) ?(window = Eventsim.Sim_time.us 100) ~limit_bytes ~out_port () =
  if limit_bytes <= tick then invalid_arg "Flow_enforcer.program: limit_bytes must exceed 1";
  fun ctx ->
    let enf =
      Efsm.create ~alloc:ctx.Program.alloc ~name:"enforcer" ~entries:slots ~nregs:3
        ~transitions:(transitions ~limit_bytes) ()
    in
    let window_timer = ctx.Program.add_timer ~period:window in
    let ingress ctx pkt =
      ctx.Program.consume_budget 1;
      let o =
        Efsm.step enf ~now:(ctx.Program.now ()) ~key:(Stateful_fw.key_of pkt)
          ~input:(Packet.len pkt)
      in
      if o.Efsm.state = s_throttled then Program.Drop else Program.Forward (out_port pkt)
    in
    let timer _ctx (ev : Devents.Event.timer_event) =
      if ev.Devents.Event.id = window_timer then Efsm.step_all enf ~input:tick
    in
    Program.make ~name:"flow-enforcer" ~ingress ~timer ()
