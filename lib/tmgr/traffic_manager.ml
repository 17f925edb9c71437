module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event

type policy = Fifo | Pifo_sched

type config = {
  num_ports : int;
  buffer_bytes : int;
  queue_limit_bytes : int option;
  pifo_capacity : int;
  policy : policy;
  port_rate_gbps : float;
}

let default_config =
  {
    num_ports = 4;
    buffer_bytes = 512 * 1024;
    queue_limit_bytes = None;
    pifo_capacity = 2048;
    policy = Fifo;
    port_rate_gbps = 10.;
  }

type port_queue =
  | Fifo_q of Fifo_queue.t
  | Pifo_q of Netcore.Packet.t Pifo.t

type port = {
  index : int;
  queue : port_queue;
  mutable busy : bool;
  mutable occupancy_bytes : int;
  mutable occupancy_pkts : int;
  (* The wire carries at most one packet per port ([busy]), so a single
     slot plus one persistent completion closure covers every
     transmission — no closure allocation per packet. *)
  mutable tx_pkt : Packet.t; (* Packet.nil when idle *)
  mutable tx_done : unit -> unit;
}

type t = {
  sched : Scheduler.t;
  config : config;
  pool : Buffer_pool.t;
  ports : port array;
  emit : port:int -> Packet.t -> unit;
  events : Devents.Event_sink.t;
  egress : (port:int -> Packet.t -> Packet.t option) option;
  mutable enqueues : int;
  mutable dequeues : int;
  mutable transmitted : int;
  mutable transmitted_bytes : int;
  mutable drops : int;
  mutable egress_drops : int;
  mutable in_flight : int;
  (* One-entry serialization-time memo. The port rate is fixed for the
     lifetime of the TM and traffic repeats packet lengths, so this
     skips the float multiply/divide/round in {!Sim_time.tx_time} on
     nearly every transmission. [-1] = empty. *)
  mutable tx_memo_bytes : int;
  mutable tx_memo_time : int;
}

let make_port config index =
  let queue =
    match config.policy with
    | Fifo -> (
        match config.queue_limit_bytes with
        | Some limit_bytes -> Fifo_q (Fifo_queue.create ~limit_bytes ())
        | None -> Fifo_q (Fifo_queue.create ()))
    | Pifo_sched -> Pifo_q (Pifo.create ~capacity:config.pifo_capacity ())
  in
  {
    index;
    queue;
    busy = false;
    occupancy_bytes = 0;
    occupancy_pkts = 0;
    tx_pkt = Packet.nil;
    tx_done = (fun () -> ());
  }

(* The port's next packet, [Packet.nil] when it holds none. *)
let pop_next port =
  match port.queue with
  | Fifo_q q -> Fifo_queue.pop q
  | Pifo_q pifo -> ( match Pifo.pop pifo with Some pkt -> pkt | None -> Packet.nil)

let start_tx t port pkt =
  port.busy <- true;
  port.tx_pkt <- pkt;
  t.in_flight <- t.in_flight + 1;
  let bytes = Packet.len pkt in
  let tx =
    if bytes = t.tx_memo_bytes then t.tx_memo_time
    else begin
      let tx = Sim_time.tx_time ~bytes ~gbps:t.config.port_rate_gbps in
      t.tx_memo_bytes <- bytes;
      t.tx_memo_time <- tx;
      tx
    end
  in
  Scheduler.post_after ~cls:Scheduler.Tm_tx t.sched ~delay:tx port.tx_done

let rec try_dequeue t port =
  if not port.busy then begin
    let pkt = pop_next port in
    if not (Packet.is_nil pkt) then begin
      let len = Packet.len pkt in
      let meta = pkt.Packet.meta in
      port.occupancy_bytes <- port.occupancy_bytes - len;
      port.occupancy_pkts <- port.occupancy_pkts - 1;
      Buffer_pool.free t.pool len;
      t.dequeues <- t.dequeues + 1;
      t.events.Devents.Event_sink.dequeue ~port:port.index ~qid:meta.Packet.qid
        ~pkt_len:len ~flow_id:meta.Packet.flow_id ~meta:meta.Packet.deq_meta
        ~occupancy_pkts:port.occupancy_pkts ~occupancy_bytes:port.occupancy_bytes
        ~time:(Scheduler.now t.sched);
      if port.occupancy_pkts = 0 then
        t.events.Devents.Event_sink.underflow ~port:port.index ~qid:meta.Packet.qid
          ~time:(Scheduler.now t.sched);
      match t.egress with
      | None -> start_tx t port pkt
      | Some egress -> (
          match egress ~port:port.index pkt with
          | None ->
              t.egress_drops <- t.egress_drops + 1;
              (* Port is free immediately; look for more work. *)
              try_dequeue t port
          | Some pkt -> start_tx t port pkt)
    end
  end

and finish_tx t port =
  let pkt = port.tx_pkt in
  if Packet.is_nil pkt then assert false;
  port.tx_pkt <- Packet.nil;
  port.busy <- false;
  t.in_flight <- t.in_flight - 1;
  t.transmitted <- t.transmitted + 1;
  t.transmitted_bytes <- t.transmitted_bytes + Packet.len pkt;
  t.events.Devents.Event_sink.transmitted ~port:port.index ~pkt_len:(Packet.len pkt)
    ~flow_id:pkt.Packet.meta.Packet.flow_id ~time:(Scheduler.now t.sched);
  t.emit ~port:port.index pkt;
  try_dequeue t port

let create ~sched ~config ~emit ~events ?egress () =
  if config.num_ports <= 0 then invalid_arg "Traffic_manager.create: num_ports";
  let t =
    {
      sched;
      config;
      pool = Buffer_pool.create ~capacity_bytes:config.buffer_bytes;
      ports = Array.init config.num_ports (make_port config);
      emit;
      events;
      egress;
      enqueues = 0;
      dequeues = 0;
      transmitted = 0;
      transmitted_bytes = 0;
      drops = 0;
      egress_drops = 0;
      in_flight = 0;
      tx_memo_bytes = -1;
      tx_memo_time = 0;
    }
  in
  Array.iter (fun port -> port.tx_done <- (fun () -> finish_tx t port)) t.ports;
  t

let reject t port pkt =
  t.drops <- t.drops + 1;
  let meta = pkt.Packet.meta in
  t.events.Devents.Event_sink.overflow ~port:port.index ~qid:meta.Packet.qid
    ~pkt_len:(Packet.len pkt) ~flow_id:meta.Packet.flow_id ~meta:meta.Packet.enq_meta
    ~occupancy_pkts:port.occupancy_pkts ~occupancy_bytes:port.occupancy_bytes
    ~time:(Scheduler.now t.sched)

(* Post-admission bookkeeping for [enqueue]. Top-level (not a local
   closure of [enqueue]: capturing [t]/[p]/[len]/[pkt] would allocate
   one closure per packet on the enqueue hot path). *)
let accept t p len pkt =
  p.occupancy_bytes <- p.occupancy_bytes + len;
  p.occupancy_pkts <- p.occupancy_pkts + 1;
  t.enqueues <- t.enqueues + 1;
  let meta = pkt.Packet.meta in
  t.events.Devents.Event_sink.enqueue ~port:p.index ~qid:meta.Packet.qid ~pkt_len:len
    ~flow_id:meta.Packet.flow_id ~meta:meta.Packet.enq_meta ~occupancy_pkts:p.occupancy_pkts
    ~occupancy_bytes:p.occupancy_bytes ~time:(Scheduler.now t.sched);
  try_dequeue t p

let enqueue t ~port pkt =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Traffic_manager.enqueue: bad port %d" port);
  let p = t.ports.(port) in
  let len = Packet.len pkt in
  match p.queue with
  | Fifo_q q ->
      pkt.Packet.meta.Packet.qid <- 0;
      if Fifo_queue.can_accept q len && Buffer_pool.try_alloc t.pool len then begin
        Fifo_queue.push q pkt;
        accept t p len pkt;
        true
      end
      else begin
        reject t p pkt;
        false
      end
  | Pifo_q pifo ->
      if Buffer_pool.try_alloc t.pool len then begin
        match Pifo.push_evict pifo ~rank:pkt.Packet.meta.Packet.priority pkt with
        | `Accepted ->
            accept t p len pkt;
            true
        | `Evicted victim ->
            let vlen = Packet.len victim in
            p.occupancy_bytes <- p.occupancy_bytes - vlen;
            p.occupancy_pkts <- p.occupancy_pkts - 1;
            Buffer_pool.free t.pool vlen;
            reject t p victim;
            accept t p len pkt;
            true
        | `Rejected ->
            Buffer_pool.free t.pool len;
            reject t p pkt;
            false
      end
      else begin
        reject t p pkt;
        false
      end

let occupancy_bytes t ~port = t.ports.(port).occupancy_bytes
let occupancy_pkts t ~port = t.ports.(port).occupancy_pkts

let total_occupancy_bytes t =
  Array.fold_left (fun acc p -> acc + p.occupancy_bytes) 0 t.ports

let enqueues t = t.enqueues
let transmitted t = t.transmitted
let drops t = t.drops
let egress_drops t = t.egress_drops
let config t = t.config

let quiescent t =
  t.in_flight = 0 && Array.for_all (fun p -> p.occupancy_pkts = 0) t.ports

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    let counter name v = Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels name) v in
    let gauge ?(labels = labels) name v =
      Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels name) v
    in
    counter "tm.enqueues" t.enqueues;
    counter "tm.dequeues" t.dequeues;
    counter "tm.transmitted" t.transmitted;
    counter "tm.transmitted_bytes" t.transmitted_bytes;
    counter "tm.drops" t.drops;
    counter "tm.egress_drops" t.egress_drops;
    gauge "tm.buffer_occupancy_bytes" (Buffer_pool.occupancy t.pool);
    gauge "tm.buffer_hwm_bytes" (Buffer_pool.high_watermark t.pool);
    counter "tm.buffer_failed_allocs" (Buffer_pool.failed_allocs t.pool);
    Array.iter
      (fun p ->
        let plabels = ("port", string_of_int p.index) :: labels in
        gauge ~labels:plabels "tm.port_occupancy_bytes" p.occupancy_bytes;
        gauge ~labels:plabels "tm.port_occupancy_pkts" p.occupancy_pkts;
        match p.queue with
        | Fifo_q q ->
            gauge ~labels:(("qid", "0") :: plabels) "tm.queue_hwm_bytes"
              (Fifo_queue.high_watermark_bytes q)
        | Pifo_q pifo ->
            gauge ~labels:plabels "tm.pifo_occupancy_pkts" (Pifo.length pifo))
      t.ports
  end
