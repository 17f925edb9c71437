module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Event = Devents.Event
module Event_merger = Devents.Event_merger
module Timer_unit = Devents.Timer_unit
module Packet_gen = Devents.Packet_gen
module Traffic_manager = Tmgr.Traffic_manager

type config = {
  arch : Arch.t;
  num_ports : int;
  state_mode : Devents.Shared_register.mode;
  clock_period : Eventsim.Sim_time.t;
  merger_config : Devents.Event_merger.config;
  tm_config : Tmgr.Traffic_manager.config;
  seed : int;
  resil : Resil.Supervisor.config;
  shed_watermark : int option;
}

let default_config arch =
  {
    arch;
    num_ports = 4;
    state_mode = Devents.Shared_register.Aggregated;
    clock_period = Pisa.Pipeline.default_clock_period;
    merger_config = Event_merger.default_config;
    tm_config = Traffic_manager.default_config;
    seed = 42;
    resil = Resil.Supervisor.default_config ();
    shed_watermark = !Resil.Shedder.default_watermark;
  }

type t = {
  sched : Scheduler.t;
  id : int;
  config : config;
  pipeline : Pisa.Pipeline.t;
  alloc : Pisa.Register_alloc.t;
  mutable merger : Event_merger.t option; (* set during wiring *)
  mutable tm : Traffic_manager.t option;
  mutable timer_unit : Timer_unit.t option;
  mutable program : Program.t option;
  mutable prog_ctx : Program.ctx option;
  subscriptions : bool array; (* by cls index: supported && handler present *)
  mutable base_subscriptions : bool array; (* install-time mask, for re-registration *)
  mutable subscription_toggles : int;
  (* Pending packet decisions, FIFO. Admission exit times are monotone
     and same-time scheduler posts fire in seq order, so a ring plus
     one persistent callback replaces a closure allocation per packet. *)
  mutable dq_pkt : Packet.t array; (* power-of-two; empty slots hold nil *)
  mutable dq_dec : Program.decision array;
  mutable dq_head : int;
  mutable dq_count : int;
  mutable decision_cb : unit -> unit;
  mutable pending_decision : Program.decision; (* last call_sink result *)
  mutable decision_sink : Program.decision -> unit;
  port_tx : (Packet.t -> unit) option array;
  link_up : bool array;
  fired : int array;
  handled : int array;
  mutable program_drops : int;
  mutable unsupported_actions : int;
  mutable unrouted : int;
  mutable recirculations : int;
  mutable cp_injections : int;
  sup : Resil.Supervisor.t;
  notify_key : Resil.Supervisor.key;
  mutable sup_keys : Resil.Supervisor.key array; (* by cls index; filled after [t] *)
  mutable supervised_drops : int;
  notifications : (int * string) Queue.t;
  mutable notification_count : int;
  mutable notify_cb : (time:int -> string -> unit) option;
  mutable link_change_cb : (port:int -> up:bool -> unit) option;
}

let get_merger t = match t.merger with Some m -> m | None -> assert false
let get_tm t = match t.tm with Some m -> m | None -> assert false
let get_program t = match t.program with Some p -> p | None -> assert false
let get_ctx t = match t.prog_ctx with Some c -> c | None -> assert false

let count_fired t cls = t.fired.(Event.cls_index cls) <- t.fired.(Event.cls_index cls) + 1
let count_handled t cls = t.handled.(Event.cls_index cls) <- t.handled.(Event.cls_index cls) + 1

(* Offer a metadata event to the merger if the architecture exposes the
   class and the program subscribed to it. *)
let fire t ev =
  let cls = Event.cls_of ev in
  count_fired t cls;
  if t.subscriptions.(Event.cls_index cls) then ignore (Event_merger.offer_event (get_merger t) ev)

let set_subscribed t cls on =
  let i = Event.cls_index cls in
  let target = on && t.base_subscriptions.(i) in
  if t.subscriptions.(i) <> target then begin
    t.subscriptions.(i) <- target;
    t.subscription_toggles <- t.subscription_toggles + 1
  end

let transmit t ~port pkt =
  match t.port_tx.(port) with
  | Some tx -> tx pkt
  | None -> t.unrouted <- t.unrouted + 1

let apply_decision t pkt decision =
  match decision with
  | Program.Drop -> t.program_drops <- t.program_drops + 1
  | Program.Forward port ->
      if port < 0 || port >= t.config.num_ports then t.unrouted <- t.unrouted + 1
      else ignore (Traffic_manager.enqueue (get_tm t) ~port pkt)
  | Program.Multicast ports ->
      List.iter
        (fun port ->
          if port < 0 || port >= t.config.num_ports then t.unrouted <- t.unrouted + 1
          else
            let copy = Packet.clone_for_forward pkt in
            copy.Packet.meta.Packet.qid <- pkt.Packet.meta.Packet.qid;
            ignore (Traffic_manager.enqueue (get_tm t) ~port copy))
        ports
  | Program.Recirculate ->
      if t.config.arch.Arch.has_recirculation then begin
        t.recirculations <- t.recirculations + 1;
        count_fired t Event.Recirculated_packet;
        ignore (Event_merger.offer_packet (get_merger t) Event_merger.Recirculated pkt)
      end
      else begin
        t.unsupported_actions <- t.unsupported_actions + 1;
        t.program_drops <- t.program_drops + 1
      end

(* Park a decided packet until its carrier exits the pipeline. *)
let push_decision t pkt decision =
  let cap = Array.length t.dq_pkt in
  if t.dq_count = cap then begin
    (* Grow by doubling, unrolling the ring from head. *)
    let pkts = Array.make (2 * cap) Packet.nil in
    let decs = Array.make (2 * cap) Program.Drop in
    for i = 0 to cap - 1 do
      let j = (t.dq_head + i) land (cap - 1) in
      pkts.(i) <- t.dq_pkt.(j);
      decs.(i) <- t.dq_dec.(j)
    done;
    t.dq_pkt <- pkts;
    t.dq_dec <- decs;
    t.dq_head <- 0
  end;
  let cap = Array.length t.dq_pkt in
  let tail = (t.dq_head + t.dq_count) land (cap - 1) in
  t.dq_pkt.(tail) <- pkt;
  t.dq_dec.(tail) <- decision;
  t.dq_count <- t.dq_count + 1

let pop_decision t =
  assert (t.dq_count > 0);
  let i = t.dq_head in
  let pkt = t.dq_pkt.(i) in
  let decision = t.dq_dec.(i) in
  t.dq_pkt.(i) <- Packet.nil;
  t.dq_dec.(i) <- Program.Drop;
  t.dq_head <- (i + 1) land (Array.length t.dq_pkt - 1);
  t.dq_count <- t.dq_count - 1;
  apply_decision t pkt decision

(* Run the program's handler for class [cls], if it has one, under the
   class's supervision key; count the event handled unless the handler
   is quarantined or failed this invocation. Handlers run whether or not
   the class is subscribed right now, so quarantine drop accounting
   stays exact. *)
let run_handler t cls handler arg =
  match handler with
  | None -> ()
  | Some f ->
      let i = Event.cls_index cls in
      if Resil.Supervisor.call_unit t.sup t.sup_keys.(i) f (get_ctx t) arg then
        t.handled.(i) <- t.handled.(i) + 1

let handle_event t ev =
  let p = get_program t in
  match ev with
  | Event.Enqueue b -> run_handler t Event.Buffer_enqueue p.Program.enqueue b
  | Event.Dequeue b -> run_handler t Event.Buffer_dequeue p.Program.dequeue b
  | Event.Overflow b -> run_handler t Event.Buffer_overflow p.Program.overflow b
  | Event.Underflow u -> run_handler t Event.Buffer_underflow p.Program.underflow u
  | Event.Transmitted x -> run_handler t Event.Packet_transmitted p.Program.transmitted x
  | Event.Timer x -> run_handler t Event.Timer_expiration p.Program.timer x
  | Event.Link_change l -> run_handler t Event.Link_status_change p.Program.link_change l
  | Event.Control c -> run_handler t Event.Control_plane p.Program.control c
  | Event.User u -> run_handler t Event.User_event p.Program.user u

let process_carrier t (carrier : Event_merger.carrier) ~exit_time =
  let pkt = carrier.Event_merger.pkt in
  if not (Packet.is_nil pkt) then begin
    let program = get_program t in
    let handler, cls =
      match carrier.Event_merger.kind with
      | Event_merger.Ingress -> (program.Program.ingress, Event.Ingress_packet)
      | Event_merger.Recirculated ->
          ( Option.value program.Program.recirculated ~default:program.Program.ingress,
            Event.Recirculated_packet )
      | Event_merger.Generated ->
          ( Option.value program.Program.generated ~default:program.Program.ingress,
            Event.Generated_packet )
    in
    let key = t.sup_keys.(Event.cls_index cls) in
    if Resil.Supervisor.call_sink t.sup key handler (get_ctx t) pkt ~sink:t.decision_sink then begin
      count_handled t cls;
      (* The decision takes effect when the carrier exits the pipeline.
         Decisions are applied FIFO: exit times are monotone, and the
         scheduler fires same-time posts in seq order. *)
      push_decision t pkt t.pending_decision;
      Scheduler.post ~cls:Scheduler.Switch_decision t.sched ~at:exit_time t.decision_cb
    end
    else
      (* Handler quarantined or crashed: the packet has no decision
         and is lost — accounted so conservation still balances. *)
      t.supervised_drops <- t.supervised_drops + 1
  end;
  for i = 0 to carrier.Event_merger.n_events - 1 do
    handle_event t carrier.Event_merger.events.(i)
  done

let create ~sched ?(id = 0) ~config ~program () =
  if config.num_ports <= 0 then invalid_arg "Event_switch.create: num_ports";
  let pipeline = Pisa.Pipeline.create ~sched ~clock_period:config.clock_period () in
  let alloc = Pisa.Register_alloc.create ~clock:(Pisa.Pipeline.clock pipeline) () in
  (* The supervisor's master RNG seed is derived from the switch seed so
     backoff jitter is reproducible but independent of the program's
     stream. *)
  let sup = Resil.Supervisor.create ~sched ~config:config.resil ~seed:(config.seed lxor 0x5eed) () in
  let notify_key = Resil.Supervisor.register sup ~name:"notify-monitor" () in
  let t =
    {
      sched;
      id;
      config;
      pipeline;
      alloc;
      merger = None;
      tm = None;
      timer_unit = None;
      program = None;
      prog_ctx = None;
      subscriptions = Array.make Event.num_classes false;
      base_subscriptions = Array.make Event.num_classes false;
      subscription_toggles = 0;
      dq_pkt = Array.make 64 Packet.nil;
      dq_dec = Array.make 64 Program.Drop;
      dq_head = 0;
      dq_count = 0;
      decision_cb = (fun () -> ());
      pending_decision = Program.Drop;
      decision_sink = (fun _ -> ());
      port_tx = Array.make config.num_ports None;
      link_up = Array.make config.num_ports true;
      fired = Array.make Event.num_classes 0;
      handled = Array.make Event.num_classes 0;
      program_drops = 0;
      unsupported_actions = 0;
      unrouted = 0;
      recirculations = 0;
      cp_injections = 0;
      sup;
      notify_key;
      sup_keys = [||];
      supervised_drops = 0;
      notifications = Queue.create ();
      notification_count = 0;
      notify_cb = None;
      link_change_cb = None;
    }
  in
  t.decision_cb <- (fun () -> pop_decision t);
  t.decision_sink <- (fun d -> t.pending_decision <- d);
  (* One supervision key per event class, in class-index order (the
     order fixes each key's split RNG). Quarantining a metadata class
     also drops its subscription, so events stop queueing for a handler
     that cannot run; packet classes have no subscription mask and are
     gated inside the guard instead. *)
  t.sup_keys <-
    Array.of_list
      (List.map
         (fun cls ->
           Resil.Supervisor.register sup ~name:(Event.cls_name cls)
             ~on_disable:(fun () -> set_subscribed t cls false)
             ~on_enable:(fun () -> set_subscribed t cls true)
             ())
         Event.all_classes);
  let merger =
    Event_merger.create ~sched ~pipeline ~config:config.merger_config
      ~process:(fun carrier ~exit_time -> process_carrier t carrier ~exit_time)
      ()
  in
  (match config.shed_watermark with
  | Some w ->
      Event_merger.set_shedder merger
        (Resil.Shedder.create ~config:(Event_merger.shed_config ~watermark:w) ())
  | None -> ());
  t.merger <- Some merger;
  let timer_unit = Timer_unit.create ~sched ~sink:(fun ev -> fire t ev) () in
  t.timer_unit <- Some timer_unit;
  (* Packet generator feeds the generated-packet input of the merger. *)
  let pktgen =
    Packet_gen.create ~sched
      ~sink:(fun pkt ->
        count_fired t Event.Generated_packet;
        ignore (Event_merger.offer_packet merger Event_merger.Generated pkt))
      ()
  in
  let ctx =
    {
      Program.switch_id = id;
      num_ports = config.num_ports;
      sched;
      alloc;
      pipeline;
      state_mode = config.state_mode;
      rng = Stats.Rng.create ~seed:config.seed;
      add_timer =
        (fun ~period ->
          if not config.arch.Arch.has_timers then
            raise (Program.Unsupported (config.arch.Arch.name ^ " has no timers"));
          Timer_unit.add_periodic timer_unit ~period);
      cancel_timer = (fun tid -> Timer_unit.cancel timer_unit tid);
      configure_pktgen =
        (fun ~period ?count ~template () ->
          if not config.arch.Arch.has_packet_generator then
            raise (Program.Unsupported (config.arch.Arch.name ^ " has no packet generator"));
          Packet_gen.configure pktgen ~period ?count ~template ());
      stop_pktgen = (fun () -> Packet_gen.stop pktgen);
      emit_user_event =
        (fun ~tag ~data ->
          fire t (Event.User { tag; data; time = Scheduler.now sched }));
      mirror_to_ingress =
        (fun pkt ->
          if not config.arch.Arch.has_recirculation then
            raise (Program.Unsupported (config.arch.Arch.name ^ " has no recirculation"));
          t.recirculations <- t.recirculations + 1;
          count_fired t Event.Recirculated_packet;
          ignore
            (Event_merger.offer_packet merger Event_merger.Recirculated
               (Packet.clone_for_forward pkt)));
      notify_monitor =
        (fun msg ->
          let time = Scheduler.now sched in
          t.notification_count <- t.notification_count + 1;
          Queue.push (time, msg) t.notifications;
          if Queue.length t.notifications > 10_000 then ignore (Queue.pop t.notifications);
          match t.notify_cb with
          | Some cb ->
              ignore (Resil.Supervisor.protect sup t.notify_key (fun () -> cb ~time msg) : bool)
          | None -> ());
      port_occupancy_bytes = (fun port -> Traffic_manager.occupancy_bytes (get_tm t) ~port);
      link_is_up = (fun port -> t.link_up.(port));
      now = (fun () -> Scheduler.now sched);
      consume_budget = (fun n -> Resil.Supervisor.consume sup n);
    }
  in
  let prog = program ctx in
  t.program <- Some prog;
  t.prog_ctx <- Some ctx;
  (* Subscription mask = architecture support AND handler present. *)
  List.iter
    (fun cls ->
      if Arch.supports config.arch cls then
        t.subscriptions.(Event.cls_index cls) <- true)
    (Program.subscriptions prog);
  t.base_subscriptions <- Array.copy t.subscriptions;
  (* Traffic manager, firing buffer events back into the merger. *)
  let egress =
    match (prog.Program.egress, Arch.supports config.arch Event.Egress_packet) with
    | Some f, true ->
        let key = t.sup_keys.(Event.cls_index Event.Egress_packet) in
        (* One pre-built closure per port and a persistent result slot:
           the per-packet call then allocates neither the [~port]
           partial application nor the supervisor's [Some] wrapper. *)
        let per_port =
          Array.init config.num_ports (fun port -> fun ctx pkt -> f ctx ~port pkt)
        in
        let pending = ref None in
        let sink r = pending := r in
        Some
          (fun ~port pkt ->
            count_fired t Event.Egress_packet;
            (* A quarantined or crashing egress handler yields no packet;
               the TM then counts the drop (egress_drops), so the loss is
               accounted exactly once. *)
            if Resil.Supervisor.call_sink sup key per_port.(port) ctx pkt ~sink then begin
              count_handled t Event.Egress_packet;
              let r = !pending in
              pending := None;
              r
            end
            else None)
    | Some _, false | None, _ -> None
  in
  let tm_config =
    { config.tm_config with Traffic_manager.num_ports = config.num_ports }
  in
  (* The TM's unboxed event sink: count the fire, gate on the current
     subscription mask, and write straight into the merger's ring — the
     boxed [fire] path is kept only for the rare timer / link / control
     / user classes. *)
  let events =
    let ix_tx = Event.cls_index Event.Packet_transmitted in
    let ix_enq = Event.cls_index Event.Buffer_enqueue in
    let ix_deq = Event.cls_index Event.Buffer_dequeue in
    let ix_ovf = Event.cls_index Event.Buffer_overflow in
    let ix_und = Event.cls_index Event.Buffer_underflow in
    let buffer cls_ix =
      fun ~port ~qid ~pkt_len ~flow_id ~meta ~occupancy_pkts ~occupancy_bytes ~time ->
       t.fired.(cls_ix) <- t.fired.(cls_ix) + 1;
       if t.subscriptions.(cls_ix) then
         ignore
           (Event_merger.offer_buffer merger ~cls_ix ~port ~qid ~pkt_len ~flow_id ~meta
              ~occupancy_pkts ~occupancy_bytes ~time
             : bool)
    in
    {
      Devents.Event_sink.enqueue = buffer ix_enq;
      dequeue = buffer ix_deq;
      overflow = buffer ix_ovf;
      underflow =
        (fun ~port ~qid ~time ->
          t.fired.(ix_und) <- t.fired.(ix_und) + 1;
          if t.subscriptions.(ix_und) then
            ignore (Event_merger.offer_underflow merger ~port ~qid ~time : bool));
      transmitted =
        (fun ~port ~pkt_len ~flow_id ~time ->
          t.fired.(ix_tx) <- t.fired.(ix_tx) + 1;
          if t.subscriptions.(ix_tx) then
            ignore (Event_merger.offer_transmitted merger ~port ~pkt_len ~flow_id ~time : bool));
    }
  in
  let tm =
    Traffic_manager.create ~sched ~config:tm_config
      ~emit:(fun ~port pkt -> transmit t ~port pkt)
      ~events ?egress ()
  in
  t.tm <- Some tm;
  t

let inject t ~port pkt =
  if port < 0 || port >= t.config.num_ports then invalid_arg "Event_switch.inject: bad port";
  pkt.Packet.meta.Packet.ingress_port <- port;
  count_fired t Event.Ingress_packet;
  ignore (Event_merger.offer_packet (get_merger t) Event_merger.Ingress pkt)

let inject_from_control_plane t pkt =
  pkt.Packet.meta.Packet.ingress_port <- -2;
  t.cp_injections <- t.cp_injections + 1;
  count_fired t Event.Ingress_packet;
  ignore (Event_merger.offer_packet (get_merger t) Event_merger.Ingress pkt)

let set_port_tx t ~port f =
  if port < 0 || port >= t.config.num_ports then invalid_arg "Event_switch.set_port_tx: bad port";
  t.port_tx.(port) <- Some f

let link_status t ~port ~up =
  if port < 0 || port >= t.config.num_ports then invalid_arg "Event_switch.link_status: bad port";
  if t.link_up.(port) <> up then begin
    t.link_up.(port) <- up;
    (match t.link_change_cb with None -> () | Some cb -> cb ~port ~up);
    fire t (Event.Link_change { port; up; time = Scheduler.now t.sched })
  end

let control_event t ~opcode ~arg =
  fire t (Event.Control { opcode; arg; time = Scheduler.now t.sched })

let subscription_toggles t = t.subscription_toggles

let on_notification t cb = t.notify_cb <- Some cb
let on_link_change t cb = t.link_change_cb <- Some cb
let program_name t = (get_program t).Program.name
let ctx t = get_ctx t
let alloc t = t.alloc
let pipeline t = t.pipeline
let tm t = get_tm t
let merger t = get_merger t
let num_ports t = t.config.num_ports
let fired t cls = t.fired.(Event.cls_index cls)
let handled t cls = t.handled.(Event.cls_index cls)
let program_drops t = t.program_drops
let unsupported_actions t = t.unsupported_actions
let unrouted t = t.unrouted
let recirculations t = t.recirculations
let cp_injections t = t.cp_injections
let notification_count t = t.notification_count
let notifications t = List.of_seq (Queue.to_seq t.notifications)
let supervisor t = t.sup
let handler_key t cls = t.sup_keys.(Event.cls_index cls)
let supervised_drops t = t.supervised_drops

(* An unsupported action is also a program drop, so it is not added
   twice. *)
let packets_dropped t =
  let tm = get_tm t and merger = get_merger t in
  t.program_drops + t.unrouted + t.supervised_drops
  + Traffic_manager.drops tm + Traffic_manager.egress_drops tm
  + Event_merger.packet_drops merger + Event_merger.packets_shed merger

(* Register the switch's standard runtime invariants with a checker.
   Conservation is asserted as the monotone inequality (accounted ≤
   offered) because packets legitimately sit in flight between sweeps;
   exact balance only holds at quiescence and is checked by the
   experiments themselves. *)
let invariant_checks t inv =
  let ix = Event.cls_index in
  Resil.Invariants.add inv ~name:"packet-conservation" (fun () ->
      let merger = get_merger t in
      let offered =
        t.fired.(ix Event.Ingress_packet)
        + t.fired.(ix Event.Recirculated_packet)
        + t.fired.(ix Event.Generated_packet)
      in
      let accounted =
        t.handled.(ix Event.Ingress_packet)
        + t.handled.(ix Event.Recirculated_packet)
        + t.handled.(ix Event.Generated_packet)
        + t.supervised_drops
        + Event_merger.packet_drops merger
        + Event_merger.packets_shed merger
      in
      if accounted > offered then
        Some (Printf.sprintf "accounted packets %d exceed offered %d" accounted offered)
      else None);
  Resil.Invariants.add inv ~name:"buffer-occupancy" (fun () ->
      let tm = get_tm t in
      let cap = (Traffic_manager.config tm).Traffic_manager.buffer_bytes in
      let occ = Traffic_manager.total_occupancy_bytes tm in
      if occ > cap then Some (Printf.sprintf "buffer occupancy %dB exceeds capacity %dB" occ cap)
      else None);
  let last = ref 0 in
  Resil.Invariants.add inv ~name:"timer-monotonicity" (fun () ->
      match t.timer_unit with
      | None -> None
      | Some tu ->
          let at = Timer_unit.last_fire_time tu in
          let now = Scheduler.now t.sched in
          if at < !last then
            Some (Printf.sprintf "timer fire time went backwards (%d after %d)" at !last)
          else if at > now then Some (Printf.sprintf "timer fired in the future (%d > %d)" at now)
          else begin
            last := at;
            None
          end)

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    let labels = ("switch", string_of_int t.id) :: labels in
    let counter ?(labels = labels) name v =
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels name) v
    in
    let gauge ?(labels = labels) name v =
      Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels name) v
    in
    let merger = get_merger t in
    List.iter
      (fun cls ->
        let clabels = ("class", Event.cls_name cls) :: labels in
        counter ~labels:clabels "switch.events_fired" t.fired.(Event.cls_index cls);
        counter ~labels:clabels "switch.events_handled" t.handled.(Event.cls_index cls);
        gauge ~labels:clabels "merger.queue_hwm" (Event_merger.queue_high_watermark merger cls))
      Event.all_classes;
    counter "switch.program_drops" t.program_drops;
    counter "switch.unsupported_actions" t.unsupported_actions;
    counter "switch.unrouted" t.unrouted;
    counter "switch.recirculations" t.recirculations;
    counter "switch.cp_injections" t.cp_injections;
    counter "switch.notifications" t.notification_count;
    counter "switch.supervised_drops" t.supervised_drops;
    counter "merger.empty_carriers" (Event_merger.empty_carriers merger);
    counter "merger.piggybacked_events" (Event_merger.piggybacked_events merger);
    counter "merger.packet_drops" (Event_merger.packet_drops merger);
    counter "merger.shed_events" (Event_merger.events_shed merger);
    counter "merger.shed_packets" (Event_merger.packets_shed merger);
    (match Event_merger.shedder merger with
    | Some s -> Resil.Shedder.export_metrics ~labels s reg
    | None -> ());
    Resil.Supervisor.export_metrics ~labels t.sup reg;
    gauge "merger.events_waiting" (Event_merger.events_waiting merger);
    gauge "merger.packets_waiting" (Event_merger.packets_waiting merger);
    List.iter
      (fun (cls, n) ->
        counter ~labels:(("class", Event.cls_name cls) :: labels) "merger.event_drops" n)
      (Event_merger.event_drops merger);
    counter "pipeline.admissions" (Pisa.Pipeline.admissions t.pipeline);
    counter "pipeline.packet_carriers" (Pisa.Pipeline.packet_carriers t.pipeline);
    counter "pipeline.empty_carriers" (Pisa.Pipeline.empty_carriers t.pipeline);
    (* Externs allocated through the switch's register allocator (EFSMs
       today) publish their own series, labelled by extern name, so
       per-flow state evolution lands in merged conformance snapshots. *)
    List.iter
      (fun (name, stats) ->
        List.iter
          (fun (stat, v) -> counter ~labels:(("extern", name) :: labels) stat v)
          (stats ()))
      (Pisa.Register_alloc.stats_exporters t.alloc);
    Traffic_manager.export_metrics ~labels (get_tm t) reg
  end
