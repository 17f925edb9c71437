module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program
module Cms = Pisa.Cms

type mode = Timer_reset | Control_plane_reset of Evcore.Control_plane.t

type window_report = {
  window_index : int;
  boundary_time : int;
  heavy_hitters : (int * int) list;
}

type t = {
  mutable reports : window_report list;
  mutable resets : int;
  mutable bits : int;
  reset_lag : Stats.Welford.t;
  touched : (int, unit) Hashtbl.t;
      (* keys seen this window, to enumerate candidates *)
}

let reports t = List.rev t.reports
let resets t = t.resets
let state_bits t = t.bits
let reset_lag t = t.reset_lag

let program ~mode ~window ~threshold_packets ~out_port () =
  let t =
    {
      reports = [];
      resets = 0;
      bits = 0;
      reset_lag = Stats.Welford.create ();
      touched = Hashtbl.create 64;
    }
  in
  let spec ctx =
    let cms =
      Cms.create ~alloc:ctx.Program.alloc ~name:"hh_cms" ~width:1024 ~depth:3 ~counter_bits:32 ()
    in
    t.bits <- Cms.bits cms;
    let window_index = ref 0 in
    let do_reset () =
      let now = ctx.Program.now () in
      let ideal = (!window_index + 1) * window in
      Stats.Welford.add t.reset_lag (Eventsim.Sim_time.to_ns (max 0 (now - ideal)));
      let heavy_hitters =
        Hashtbl.fold
          (fun key () acc ->
            let est = Cms.query cms ~key in
            if est >= threshold_packets then (key, est) :: acc else acc)
          t.touched []
      in
      t.reports <-
        { window_index = !window_index; boundary_time = now; heavy_hitters } :: t.reports;
      incr window_index;
      Hashtbl.reset t.touched;
      Cms.reset cms;
      t.resets <- t.resets + 1
    in
    (match mode with
    | Timer_reset -> ignore (ctx.Program.add_timer ~period:window)
    | Control_plane_reset cp ->
        (* The CPU asks for a reset every window; the request pays the
           channel costs before it lands on the device. *)
        ignore (Evcore.Control_plane.periodic cp ~period:window do_reset));
    let ingress _ctx pkt =
      let key =
        match Packet.flow pkt with
        | Some flow -> Flow.hash_addresses flow land 0xffffff
        | None -> 0
      in
      Cms.update cms ~key ~delta:1;
      Hashtbl.replace t.touched key ();
      Program.Forward (out_port pkt)
    in
    let timer =
      match mode with
      | Timer_reset -> Some (fun _ctx (_ev : Devents.Event.timer_event) -> do_reset ())
      | Control_plane_reset _ -> None
    in
    Program.make ~name:"cms-heavy-hitters" ~ingress ?timer ()
  in
  (spec, t)
