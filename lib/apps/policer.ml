module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program

type mode = Timer_bucket of { refill_period : Eventsim.Sim_time.t } | Extern_meter

type t = { mutable total_accepted : int; mutable bits : int }

let total_accepted_bytes t = t.total_accepted
let state_bits t = t.bits

let program ?(slots = 64) ~mode ~cir_bytes_per_sec ~burst_bytes ~out_port () =
  if cir_bytes_per_sec <= 0. || burst_bytes <= 0 then invalid_arg "Policer.program";
  let t = { total_accepted = 0; bits = 0 } in
  let spec ctx =
    let flow_slot pkt =
      match Packet.flow pkt with
      | Some flow -> Netcore.Hashes.fold_range (Flow.hash flow) slots
      | None -> 0
    in
    let admit pkt ok =
      if ok then begin
        t.total_accepted <- t.total_accepted + Packet.len pkt;
        Program.Forward (out_port pkt)
      end
      else Program.Drop
    in
    match mode with
    | Timer_bucket { refill_period } ->
        let tokens =
          Pisa.Register_alloc.array ctx.Program.alloc ~name:"policer_tokens" ~entries:slots
            ~width:32
        in
        t.bits <- Pisa.Register_array.bits tokens;
        Pisa.Register_array.fill tokens burst_bytes;
        let refill_amount =
          max 1
            (int_of_float (cir_bytes_per_sec *. Eventsim.Sim_time.to_sec refill_period))
        in
        ignore (ctx.Program.add_timer ~period:refill_period);
        let timer _ctx (_ev : Devents.Event.timer_event) =
          for i = 0 to slots - 1 do
            let v = Pisa.Register_array.read tokens i in
            Pisa.Register_array.write tokens i (min burst_bytes (v + refill_amount))
          done
        in
        let ingress _ctx pkt =
          let fid = flow_slot pkt in
          let len = Packet.len pkt in
          let v = Pisa.Register_array.read tokens fid in
          if v >= len then begin
            Pisa.Register_array.write tokens fid (v - len);
            admit pkt true
          end
          else admit pkt false
        in
        Program.make ~name:"policer-timer" ~ingress ~timer ()
    | Extern_meter ->
        let meters =
          Array.init slots (fun _ ->
              Pisa.Meter.create ~cir_bytes_per_sec ~cbs:burst_bytes ~ebs:0)
        in
        (* A fixed-function meter bank is not register state, but it
           does occupy device resources; charge the equivalent token
           storage for comparability. *)
        t.bits <- slots * 64;
        let ingress ctx pkt =
          let fid = flow_slot pkt in
          match
            Pisa.Meter.mark meters.(fid) ~now_ps:(ctx.Program.now ())
              ~bytes:(Packet.len pkt)
          with
          | Pisa.Meter.Green -> admit pkt true
          | Pisa.Meter.Yellow | Pisa.Meter.Red -> admit pkt false
        in
        Program.make ~name:"policer-extern" ~ingress ()
  in
  (spec, t)
