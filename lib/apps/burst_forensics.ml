module Sim_time = Eventsim.Sim_time
module Program = Evcore.Program
module Event = Devents.Event
module P = Cep.Pattern

type t = { det : Cep.Detector.t }

(* Per-port buffer events carry queue occupancy as the attribute and
   the port as the correlation key (the detector's defaults). *)
let pattern ~ramp ~depth ~window =
  P.within window
    (P.seq
       [
         P.count ramp (P.atom ~label:"hot-enqueue" ~lo:depth Event.Buffer_enqueue);
         P.atom ~label:"overflow" Event.Buffer_overflow;
       ])

let program ?slots ?(ramp = 8) ?(depth = 16) ?(window = Sim_time.us 50)
    ?(tick_period = Sim_time.us 10) ?on_match ~out_port () =
  let c = Cep.Compile.compile ~tick_period (pattern ~ramp ~depth ~window) in
  let forward ctx pkt =
    ignore (ctx : Program.ctx);
    Program.Forward (out_port pkt)
  in
  let spec, det =
    Cep.Detector.program ?slots ~forward ?on_match ~name:"burst-forensics"
      ~compiled:c ()
  in
  (spec, { det })

let bursts t = Cep.Detector.matches t.det
let culprit_ports t = List.map fst (Cep.Detector.match_log t.det)
