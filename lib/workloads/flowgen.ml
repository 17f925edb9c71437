module Flow = Netcore.Flow
module Ipv4_addr = Netcore.Ipv4_addr
module Scheduler = Eventsim.Scheduler

type flow_desc = {
  flow : Flow.t;
  packets : int;
  pkt_bytes : int;
  start : Eventsim.Sim_time.t;
  rank : int;
}

type spec = {
  num_flows : int;
  key_space : int;
  zipf_alpha : float;
  mean_packets : float;
  max_packets : int;
  pkt_bytes : int;
  arrival_rate_per_sec : float;
}

let flow_of_rank rank =
  (* Deterministic (src, dst) per popularity rank; distinct ports per
     rank keep five-tuples unique. *)
  Flow.make
    ~src:(Ipv4_addr.host ~subnet:1 rank)
    ~dst:(Ipv4_addr.host ~subnet:2 rank)
    ~src_port:(1024 + (rank land 0xfff))
    ~dst_port:80 ()

(* The arrival clock, in seconds. A one-field float record is stored
   flat; a [float ref] captured by the draw closure would box a fresh
   float at every flow. *)
type clock = { mutable now_s : float }

(* One-flow-at-a-time draw closure, in the draw order (gap, rank,
   size) per flow, so a million-flow mix is never materialized. *)
let make_draw ~rng ?(flow_of_rank = flow_of_rank) spec =
  let zipf = Stats.Dist.zipf ~n:spec.key_space ~alpha:spec.zipf_alpha in
  (* Pareto with shape 1.4 and mean m has scale m * (shape-1)/shape. *)
  let shape = 1.4 in
  let scale = spec.mean_packets *. (shape -. 1.) /. shape in
  let clock = { now_s = 0. } in
  fun () ->
    let gap = Stats.Dist.exponential rng ~rate:spec.arrival_rate_per_sec in
    clock.now_s <- clock.now_s +. gap;
    let rank = Stats.Dist.zipf_draw rng zipf in
    let packets = max 1 (int_of_float (Stats.Dist.pareto rng ~shape ~scale)) in
    let packets = min packets spec.max_packets in
    {
      flow = flow_of_rank rank;
      packets;
      pkt_bytes = spec.pkt_bytes;
      start = int_of_float (clock.now_s *. 1e12);
      rank;
    }

type source_stats = {
  mutable flows_started : int;
  mutable flows_finished : int;
  mutable live_flows : int;
  mutable peak_live_flows : int;
  mutable packets_sent : int;
  mutable bytes_sent : int;
}

let install ~sched ~rng ?flow_of_rank ?arrival_stop
    ~rate_pps_per_flow ?(on_flow = fun _ -> ()) ?(on_flow_end = fun _ -> ()) spec ~send
    () =
  if rate_pps_per_flow <= 0. then
    invalid_arg "Flowgen.install: rate_pps_per_flow must be positive";
  let draw = make_draw ~rng ?flow_of_rank spec in
  let st =
    {
      flows_started = 0;
      flows_finished = 0;
      live_flows = 0;
      peak_live_flows = 0;
      packets_sent = 0;
      bytes_sent = 0;
    }
  in
  let emission_gap = max 1 (int_of_float (1e12 /. rate_pps_per_flow)) in
  (* De-grid the emission schedule: with one exact gap shared by every
     flow, two flows whose grids ever align (likely among millions of
     pairs) tie on the same picosecond at every subsequent emission —
     violating the no-same-instant precondition sharded determinism
     rests on. A tiny offset per (flow, packet index), derived only
     from the flow's drawn arrival time (unique w.h.p. and independent
     of the shard layout), keeps repeat emissions off each other's
     grids while moving each gap by at most 4 ns. *)
  let gap_jitter fd i = Netcore.Hashes.mix64 (fd.start + (i * 1_000_003)) land 0xfff in
  let finish fd =
    st.live_flows <- st.live_flows - 1;
    st.flows_finished <- st.flows_finished + 1;
    on_flow_end fd
  in
  (* A live flow is one pending scheduler event (the next emission) plus
     the closure holding [fd] and the packet index — O(1) words. *)
  let begin_flow fd =
    st.flows_started <- st.flows_started + 1;
    st.live_flows <- st.live_flows + 1;
    if st.live_flows > st.peak_live_flows then st.peak_live_flows <- st.live_flows;
    on_flow fd;
    let rec emit_one i =
      let pkt = Traffic.make_packet ~sched ~flow:fd.flow ~pkt_bytes:fd.pkt_bytes in
      st.packets_sent <- st.packets_sent + 1;
      st.bytes_sent <- st.bytes_sent + Netcore.Packet.len pkt;
      send pkt;
      if i + 1 < fd.packets then
        Scheduler.post_after ~cls:Scheduler.Workload sched
          ~delay:(emission_gap + gap_jitter fd i)
          (fun () -> emit_one (i + 1))
      else finish fd
    in
    emit_one 0
  in
  (* Lazy arrival chain: the next flow is drawn only when the previous
     one starts, so exactly one un-started flow is in memory at any
     simulated moment regardless of [spec.num_flows]. Cumulative draw
     times never decrease, so once one arrival passes [arrival_stop]
     all later ones would too — the chain just ends. *)
  let rec next_arrival remaining =
    if remaining > 0 then begin
      let fd = draw () in
      match arrival_stop with
      | Some s when fd.start >= s -> ()
      | _ ->
          Scheduler.post ~cls:Scheduler.Workload sched ~at:fd.start (fun () ->
              begin_flow fd;
              next_arrival (remaining - 1))
    end
  in
  next_arrival spec.num_flows;
  st
