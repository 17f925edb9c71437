module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Event = Devents.Event
module Program = Evcore.Program
module Shared_register = Devents.Shared_register

type policy =
  | Taildrop
  | Red of { min_th : int; max_th : int; max_p : float; weight : float }
  | Fred of { multiplier : float }
  | Pie of {
      target_delay : Eventsim.Sim_time.t;
      update_period : Eventsim.Sim_time.t;
      alpha : float;
      beta : float;
    }

type t = {
  mutable early_drops : int;
  mutable ecn_marks : int;
  mutable reg : Shared_register.t option;
  mutable flow_count_reg : Shared_register.t option;
  avg : Stats.Ewma.t;
  mutable active : int;
  mutable bits : int;
  mutable drop_p : float; (* PIE *)
  mutable old_delay_sec : float;
  mutable deq_bytes_window : int;
}

let early_drops t = t.early_drops
let ecn_marks t = t.ecn_marks
let active_flows t = t.active

let drop_probability t = t.drop_p

let state_bits t = t.bits

let program ?(slots = 256) ?(mark_instead_of_drop = false) ~policy ~buffer_bytes ~out_port () =
  let weight = match policy with Red r -> r.weight | Taildrop | Fred _ | Pie _ -> 0.2 in
  let t =
    {
      early_drops = 0;
      ecn_marks = 0;
      reg = None;
      flow_count_reg = None;
      avg = Stats.Ewma.create ~alpha:weight;
      active = 0;
      bits = 0;
      drop_p = 0.;
      old_delay_sec = 0.;
      deq_bytes_window = 0;
    }
  in
  let spec ctx =
    (* Per-flow occupancy + per-flow packet counts (to track active
       flows) + total occupancy, all exact via enqueue/dequeue
       events. *)
    let flow_occ = Program.shared_register ctx ~name:"aqm_flow_occ" ~entries:slots ~width:32 in
    let flow_pkts = Program.shared_register ctx ~name:"aqm_flow_pkts" ~entries:slots ~width:32 in
    let total_occ = Program.shared_register ctx ~name:"aqm_total_occ" ~entries:1 ~width:32 in
    t.reg <- Some flow_occ;
    t.flow_count_reg <- Some flow_pkts;
    t.bits <-
      Shared_register.total_bits flow_occ + Shared_register.total_bits flow_pkts
      + Shared_register.total_bits total_occ;
    let flow_slot pkt =
      match Packet.flow pkt with
      | Some flow -> Netcore.Hashes.fold_range (Flow.hash flow) slots
      | None -> 0
    in
    let ingress ctx pkt =
      let fid = flow_slot pkt in
      pkt.Packet.meta.Packet.flow_id <- fid;
      pkt.Packet.meta.Packet.enq_meta.(0) <- fid;
      pkt.Packet.meta.Packet.enq_meta.(1) <- Packet.len pkt;
      pkt.Packet.meta.Packet.deq_meta.(0) <- fid;
      pkt.Packet.meta.Packet.deq_meta.(1) <- Packet.len pkt;
      let drop_or_mark () =
        if mark_instead_of_drop then begin
          t.ecn_marks <- t.ecn_marks + 1;
          (* Multi-bit congestion mark: quantised queue occupancy. *)
          pkt.Packet.meta.Packet.mark <-
            min 15 (Shared_register.read total_occ 0 * 16 / max 1 buffer_bytes);
          Program.Forward (out_port pkt)
        end
        else begin
          t.early_drops <- t.early_drops + 1;
          Program.Drop
        end
      in
      match policy with
      | Taildrop -> Program.Forward (out_port pkt)
      | Red { min_th; max_th; max_p; weight = _ } ->
          (* Refresh the average from the event-maintained occupancy on
             every arrival, so the estimate tracks the queue draining
             even while early drops suppress enqueue events. *)
          let avg = Stats.Ewma.update t.avg (float_of_int (Shared_register.read total_occ 0)) in
          if avg <= float_of_int min_th then Program.Forward (out_port pkt)
          else if avg >= float_of_int max_th then drop_or_mark ()
          else
            let p =
              max_p *. (avg -. float_of_int min_th) /. float_of_int (max_th - min_th)
            in
            if Stats.Rng.float ctx.Program.rng < p then drop_or_mark ()
            else Program.Forward (out_port pkt)
      | Fred { multiplier } ->
          let occ = Shared_register.read flow_occ fid in
          let fair =
            float_of_int buffer_bytes /. float_of_int (max 1 t.active) *. multiplier
          in
          if float_of_int occ > fair then drop_or_mark () else Program.Forward (out_port pkt)
      | Pie _ ->
          if t.drop_p > 0. && Stats.Rng.float ctx.Program.rng < t.drop_p then drop_or_mark ()
          else Program.Forward (out_port pkt)
    in
    (match policy with
    | Pie { update_period; _ } -> ignore (ctx.Program.add_timer ~period:update_period)
    | Taildrop | Red _ | Fred _ -> ());
    let timer =
      match policy with
      | Pie { target_delay; update_period; alpha; beta } ->
          let target_sec = Eventsim.Sim_time.to_sec target_delay in
          let period_sec = Eventsim.Sim_time.to_sec update_period in
          Some
            (fun _ctx (_ev : Event.timer_event) ->
              (* Queueing delay estimate: occupancy / departure rate
                 over the last window, both derived from events. *)
              let occ = float_of_int (Shared_register.true_value total_occ 0) in
              let rate = float_of_int t.deq_bytes_window /. period_sec in
              t.deq_bytes_window <- 0;
              let delay = if rate > 0. then occ /. rate else if occ > 0. then 1. else 0. in
              let p' =
                t.drop_p
                +. (alpha *. (delay -. target_sec))
                +. (beta *. (delay -. t.old_delay_sec))
              in
              t.old_delay_sec <- delay;
              t.drop_p <- Float.max 0. (Float.min 1. p'))
      | Taildrop | Red _ | Fred _ -> None
    in
    let enqueue _ctx (ev : Event.buffer_event) =
      Shared_register.event_add flow_occ Shared_register.Enq_side ev.Event.meta.(0)
        ev.Event.meta.(1);
      Shared_register.event_add flow_pkts Shared_register.Enq_side ev.Event.meta.(0) 1;
      Shared_register.event_add total_occ Shared_register.Enq_side 0 ev.Event.meta.(1);
      if Shared_register.true_value flow_pkts ev.Event.meta.(0) = 1 then t.active <- t.active + 1;
      ignore (Stats.Ewma.update t.avg (float_of_int (Shared_register.true_value total_occ 0)))
    in
    let dequeue _ctx (ev : Event.buffer_event) =
      t.deq_bytes_window <- t.deq_bytes_window + ev.Event.meta.(1);
      Shared_register.event_add flow_occ Shared_register.Deq_side ev.Event.meta.(0)
        (-ev.Event.meta.(1));
      Shared_register.event_add flow_pkts Shared_register.Deq_side ev.Event.meta.(0) (-1);
      Shared_register.event_add total_occ Shared_register.Deq_side 0 (-ev.Event.meta.(1));
      if Shared_register.true_value flow_pkts ev.Event.meta.(0) = 0 then
        t.active <- max 0 (t.active - 1)
    in
    Program.make ~name:"aqm" ~ingress ~enqueue ~dequeue ?timer ()
  in
  (spec, t)
