module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program
module Sliding_window = Stats.Sliding_window

type t = { mutable windows : Sliding_window.t array; mutable rotations : int }

let estimate_bps t ~flow_slot = Sliding_window.completed_rate t.windows.(flow_slot)

let rotations t = t.rotations

let program ?(slots = 256) ?(window_slices = 8) ~slice ~out_port () =
  let slice_sec = Eventsim.Sim_time.to_sec slice in
  let t = { windows = [||]; rotations = 0 } in
  let spec ctx =
    (* The shift register: [slots] flows x [window_slices] slices of a
       32-bit byte counter. Charged as real register state. *)
    ignore
      (Pisa.Register_alloc.array ctx.Program.alloc ~name:"rate_shift_reg"
         ~entries:(slots * window_slices) ~width:32);
    t.windows <-
      Array.init slots (fun _ -> Sliding_window.create ~slots:window_slices ~slot_width:slice_sec);
    ignore (ctx.Program.add_timer ~period:slice);
    let ingress _ctx pkt =
      let slot =
        match Packet.flow pkt with
        | Some flow -> Netcore.Hashes.fold_range (Flow.hash_addresses flow) slots
        | None -> 0
      in
      Sliding_window.add t.windows.(slot) (float_of_int (Packet.len pkt));
      Program.Forward (out_port pkt)
    in
    let timer _ctx (_ev : Devents.Event.timer_event) =
      t.rotations <- t.rotations + 1;
      Array.iter Sliding_window.rotate t.windows
    in
    Program.make ~name:"flow-rate" ~ingress ~timer ()
  in
  (spec, t)
