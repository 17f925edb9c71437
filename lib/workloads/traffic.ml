module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Flow = Netcore.Flow

type t = { mutable sent : int; mutable sent_bytes : int }

let sent t = t.sent
let sent_bytes t = t.sent_bytes

let make_packet ~sched ~flow ~pkt_bytes =
  let payload_len =
    max 0 (pkt_bytes - Netcore.Ethernet.size - Netcore.Ipv4.size - Netcore.Udp.size)
  in
  Packet.udp_packet ~created_at:(Scheduler.now sched) ~src:flow.Flow.src ~dst:flow.Flow.dst
    ~src_port:flow.Flow.src_port ~dst_port:flow.Flow.dst_port ~payload_len ()

let emit t ~sched ~flow ~pkt_bytes send =
  let pkt = make_packet ~sched ~flow ~pkt_bytes in
  t.sent <- t.sent + 1;
  t.sent_bytes <- t.sent_bytes + Packet.len pkt;
  send pkt

let within stop ~sched = match stop with None -> true | Some s -> Scheduler.now sched < s

let cbr ~sched ~flow ~pkt_bytes ~rate_gbps ?(start = Sim_time.zero) ?stop ?jitter ~send () =
  let t = { sent = 0; sent_bytes = 0 } in
  let gap = Sim_time.tx_time ~bytes:pkt_bytes ~gbps:rate_gbps in
  let rec step () =
    if within stop ~sched then begin
      let delay =
        match jitter with
        | None -> 0
        | Some (rng, j) -> if j > 0 then Stats.Rng.int rng j else 0
      in
      Scheduler.post_after ~cls:Scheduler.Workload sched ~delay (fun () ->
          if within stop ~sched then
            emit t ~sched ~flow ~pkt_bytes send);
      Scheduler.post_after ~cls:Scheduler.Workload sched ~delay:gap step
    end
  in
  Scheduler.post ~cls:Scheduler.Workload sched ~at:(max start (Scheduler.now sched)) step;
  t

let poisson ~sched ~rng ~flow ~pkt_bytes ~rate_pps ?stop ~send () =
  if rate_pps <= 0. then invalid_arg "Traffic.poisson: rate must be positive";
  let t = { sent = 0; sent_bytes = 0 } in
  let rec step () =
    if within stop ~sched then begin
      emit t ~sched ~flow ~pkt_bytes send;
      let gap_sec = Stats.Dist.exponential rng ~rate:rate_pps in
      let gap = max 1 (int_of_float (gap_sec *. 1e12)) in
      Scheduler.post_after ~cls:Scheduler.Workload sched ~delay:gap step
    end
  in
  Scheduler.post ~cls:Scheduler.Workload sched ~at:(Scheduler.now sched) step;
  t

let on_off ~sched ~rng ~flow ~pkt_bytes ~burst_rate_gbps ~on_time ~off_time
    ?(start = Sim_time.zero) ?stop ?(exponential_gaps = false) ~send () =
  if on_time <= 0 || off_time < 0 then invalid_arg "Traffic.on_off: bad durations";
  let t = { sent = 0; sent_bytes = 0 } in
  let gap = Sim_time.tx_time ~bytes:pkt_bytes ~gbps:burst_rate_gbps in
  let duration mean =
    if exponential_gaps then
      max 1 (int_of_float (Stats.Dist.exponential rng ~rate:(1e12 /. float_of_int mean) *. 1e12))
    else mean
  in
  let rec on_phase until =
    if within stop ~sched then
      if Scheduler.now sched < until then begin
        emit t ~sched ~flow ~pkt_bytes send;
        Scheduler.post_after ~cls:Scheduler.Workload sched ~delay:gap (fun () -> on_phase until)
      end
      else
        Scheduler.post_after ~cls:Scheduler.Workload sched ~delay:(duration off_time) (fun () ->
            start_burst ())
  and start_burst () =
    if within stop ~sched then
      on_phase (Scheduler.now sched + duration on_time)
  in
  Scheduler.post ~cls:Scheduler.Workload sched ~at:(max start (Scheduler.now sched)) start_burst;
  t

let burst_once ~sched ~flow ~pkt_bytes ~count ~rate_gbps ~at ~send () =
  let t = { sent = 0; sent_bytes = 0 } in
  let gap = Sim_time.tx_time ~bytes:pkt_bytes ~gbps:rate_gbps in
  let rec step remaining =
    if remaining > 0 then begin
      emit t ~sched ~flow ~pkt_bytes send;
      Scheduler.post_after ~cls:Scheduler.Workload sched ~delay:gap (fun () -> step (remaining - 1))
    end
  in
  Scheduler.post ~cls:Scheduler.Workload sched ~at (fun () -> step count);
  t
