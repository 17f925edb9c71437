(* E1 — Table 1: the set of data-plane events.

   One program subscribes to every event class and a single scenario
   provokes all of them (traffic, a burst that overflows a tiny
   buffer, recirculation, generated packets, timers, a control-plane
   trigger, a link flap, a user event). Running it on three
   architectures shows which classes each target delivers: the full
   event-driven PISA handles all thirteen, the SUME Event Switch its
   documented subset, and the baseline PSA only packet events. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event
module Arch = Evcore.Arch
module Program = Evcore.Program
module Event_switch = Evcore.Event_switch

type arch_result = {
  arch_name : string;
  fired : (Event.cls * int) list;
  handled : (Event.cls * int) list;
}

type result = { arches : arch_result list }

let omni_program () : Program.spec =
 fun ctx ->
  let seen_first = ref false in
  (try
     ignore (ctx.Program.add_timer ~period:(Sim_time.us 10));
     ctx.Program.configure_pktgen ~period:(Sim_time.us 25) ~count:4
       ~template:(fun i ->
         Packet.udp_packet
           ~src:(Netcore.Ipv4_addr.host ~subnet:7 i)
           ~dst:(Netcore.Ipv4_addr.host ~subnet:1 0)
           ~src_port:9 ~dst_port:9 ~payload_len:22 ())
       ()
   with Program.Unsupported _ -> ());
  let ingress ctx _pkt =
    if not !seen_first then begin
      seen_first := true;
      ctx.Program.emit_user_event ~tag:1 ~data:42;
      Program.Recirculate
    end
    else Program.Forward 0
  in
  let nop_buffer _ctx (_ev : Event.buffer_event) = () in
  Program.make ~name:"omni" ~ingress
    ~recirculated:(fun _ctx _pkt -> Program.Forward 0)
    ~generated:(fun _ctx _pkt -> Program.Forward 0)
    ~egress:(fun _ctx ~port:_ pkt -> Some pkt)
    ~enqueue:nop_buffer ~dequeue:nop_buffer ~overflow:nop_buffer
    ~underflow:(fun _ctx _ev -> ())
    ~transmitted:(fun _ctx _ev -> ())
    ~timer:(fun _ctx _ev -> ())
    ~link_change:(fun _ctx _ev -> ())
    ~control:(fun _ctx _ev -> ())
    ~user:(fun _ctx _ev -> ())
    ()

let run_arch ?metrics arch =
  let sched = Scheduler.create () in
  let config = Event_switch.default_config arch in
  let config =
    {
      config with
      Event_switch.tm_config =
        { config.Event_switch.tm_config with Tmgr.Traffic_manager.buffer_bytes = 4_000 };
    }
  in
  let sw = Event_switch.create ~sched ~config ~program:(omni_program ()) () in
  let obs_labels = [ ("arch", arch.Arch.name) ] in
  (match metrics with
  | Some m -> Scheduler.set_metrics ~labels:obs_labels sched m
  | None -> ());
  Event_switch.set_port_tx sw ~port:0 (fun _ -> ());
  (* Traffic: a burst big enough to overflow the 4 KB buffer. *)
  for i = 0 to 39 do
    Scheduler.post sched ~at:(i * Sim_time.ns 100) (fun () ->
        Event_switch.inject sw ~port:1
          (Packet.udp_packet
             ~src:(Netcore.Ipv4_addr.host ~subnet:2 i)
             ~dst:(Netcore.Ipv4_addr.host ~subnet:1 0)
             ~src_port:i ~dst_port:80 ~payload_len:958 ()))
  done;
  Scheduler.post sched ~at:(Sim_time.us 30) (fun () ->
      Event_switch.control_event sw ~opcode:1 ~arg:0);
  Scheduler.post sched ~at:(Sim_time.us 40) (fun () ->
      Event_switch.link_status sw ~port:2 ~up:false);
  Scheduler.post sched ~at:(Sim_time.us 50) (fun () ->
      Event_switch.link_status sw ~port:2 ~up:true);
  Scheduler.run ~until:(Sim_time.us 200) sched;
  (match metrics with
  | Some m ->
      Scheduler.export_metrics ~labels:obs_labels sched m;
      Event_switch.export_metrics ~labels:obs_labels sw m
  | None -> ());
  {
    arch_name = arch.Arch.name;
    fired = List.map (fun cls -> (cls, Event_switch.fired sw cls)) Event.all_classes;
    handled = List.map (fun cls -> (cls, Event_switch.handled sw cls)) Event.all_classes;
  }

let run ?metrics () =
  {
    arches =
      List.map (run_arch ?metrics)
        [ Arch.baseline_psa; Arch.sume_event_switch; Arch.event_pisa_full ];
  }

let cell ar cls =
  let handled = List.assoc cls ar.handled in
  let fired = List.assoc cls ar.fired in
  if handled > 0 then Printf.sprintf "yes (%d)" handled
  else if fired > 0 then "masked"
  else "-"

let print r =
  Report.section "E1 / Table 1 — data-plane event classes delivered per architecture";
  Report.note "'yes (n)' = n events delivered to the program; 'masked' = the";
  Report.note "hardware produced the event but the architecture does not expose it.";
  Report.blank ();
  let headers = "Event" :: List.map (fun a -> a.arch_name) r.arches in
  let rows =
    List.map
      (fun cls -> Event.cls_name cls :: List.map (fun ar -> cell ar cls) r.arches)
      Event.all_classes
  in
  Report.table ~headers ~rows;
  let full = List.nth r.arches 2 in
  let all_handled =
    List.for_all (fun cls -> List.assoc cls full.handled > 0) Event.all_classes
  in
  Report.blank ();
  Report.kv "event-pisa handles all 13 classes" (if all_handled then "PASS" else "FAIL")

let name = "table1"
