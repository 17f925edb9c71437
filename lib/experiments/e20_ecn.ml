(* E20 — §3: multi-bit ECN along a path.

   A three-switch chain carries traffic end to end; the middle
   switch's egress is degraded to 1 Gb/s, so its buffer is the
   bottleneck. Every switch stamps packets with max(mark, quantised
   local occupancy) from its event-maintained occupancy register. The
   receiver therefore reads the bottleneck occupancy: during the
   congestion episode the received marks must track the bottleneck
   switch's true occupancy (and stay at zero before it), and a
   16-level mark must carry more information than classic 1-bit ECN —
   measured as correlation of the received signal with the true
   bottleneck occupancy. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Traffic = Workloads.Traffic

let buffer_bytes = 128 * 1024
let congest_from = Sim_time.us 300
let stop_at = Sim_time.ms 1 + Sim_time.us 500

type variant_result = {
  variant : string;
  samples : (float * float) list;  (** (true occupancy fraction, received signal) *)
  marks_before_congestion : int;
  correlation : float;
  distinct_levels : int;
}

type result = { multibit : variant_result; single_bit : variant_result }

let pearson xs ys =
  let n = float_of_int (Array.length xs) in
  if n < 2. then 0.
  else begin
    let mx = Stats.Summary.mean xs and my = Stats.Summary.mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ys.(i) -. my in
        sxy := !sxy +. (dx *. dy);
        sxx := !sxx +. (dx *. dx);
        syy := !syy +. (dy *. dy))
      xs;
    if !sxx = 0. || !syy = 0. then 0. else !sxy /. sqrt (!sxx *. !syy)
  end

(* Chain: host0 - sw0 - sw1(bottleneck) - sw2 - host1. Ports: 0 =
   host side, 1 = towards sw2/host1, 2 = towards sw0/host0. *)
let topo =
  Evcore.Topology.make ~switches:3
    ~links:[ ((0, 1), (1, 2)); ((1, 1), (2, 2)) ]
    ~hosts:[ (0, 0); (2, 0) ]

let run_variant ~levels ~variant () =
  let switch_config sw =
    let base = Event_switch.default_config Arch.event_pisa_full in
    let tm = base.Event_switch.tm_config in
    {
      base with
      Event_switch.tm_config =
        (if sw = 1 then { tm with Tmgr.Traffic_manager.port_rate_gbps = 1.; buffer_bytes }
         else { tm with Tmgr.Traffic_manager.buffer_bytes });
    }
  in
  let bottleneck = ref None in
  let program sw ctx =
    let out = if sw = 2 then 0 else 1 in
    let spec, app = Apps.Ecn_mark.program ~levels ~buffer_bytes ~out_port:(fun _ -> out) () in
    if sw = 1 then bottleneck := Some app;
    spec ctx
  in
  (* Receiver: pair each packet's mark with the bottleneck's true
     occupancy at arrival (the queueing delay means the mark reflects
     slightly older state — part of the measured signal quality). *)
  let samples = ref [] in
  let marks_before = ref 0 in
  let on_shard (ctx : Parsim.shard_ctx) =
    let bottleneck = Option.get !bottleneck and src = List.assoc 0 ctx.hosts in
    Host.set_receiver (List.assoc 1 ctx.hosts) (fun _ pkt ->
        let occ_frac =
          float_of_int (Apps.Ecn_mark.occupancy_bytes bottleneck) /. float_of_int buffer_bytes
        in
        let signal = float_of_int pkt.Packet.meta.Packet.mark /. float_of_int (levels - 1) in
        samples := (occ_frac, signal) :: !samples;
        if Scheduler.now ctx.sched < congest_from && pkt.Packet.meta.Packet.mark > 0 then
          incr marks_before);
    (* 0.8 Gb/s baseline fits the 1 Gb/s bottleneck; from [congest_from]
       a second flow pushes the total to 2 Gb/s and the queue climbs. *)
    let flow i =
      Netcore.Flow.make
        ~src:(Netcore.Ipv4_addr.host ~subnet:1 i)
        ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
        ~src_port:(1000 + i) ~dst_port:80 ()
    in
    ignore
      (Traffic.cbr ~sched:ctx.sched ~flow:(flow 1) ~pkt_bytes:1000 ~rate_gbps:0.8 ~stop:stop_at
         ~send:(fun pkt -> Host.send src pkt)
         ());
    ignore
      (Traffic.cbr ~sched:ctx.sched ~flow:(flow 2) ~pkt_bytes:1000 ~rate_gbps:1.2
         ~start:congest_from ~stop:stop_at
         ~send:(fun pkt -> Host.send src pkt)
         ())
  in
  ignore
    (Parsim.run (Parsim.config ~until:stop_at ~switch_config ~program ~on_shard ()) topo
      : Parsim.result);
  let samples = List.rev !samples in
  let xs = Array.of_list (List.map fst samples) in
  let ys = Array.of_list (List.map snd samples) in
  {
    variant;
    samples;
    marks_before_congestion = !marks_before;
    correlation = pearson xs ys;
    distinct_levels =
      List.length (List.sort_uniq compare (List.map snd samples));
  }

let run ?(seed = 42) () =
  ignore seed;
  {
    multibit = run_variant ~levels:16 ~variant:"16-level mark" ();
    single_bit = run_variant ~levels:2 ~variant:"classic 1-bit ECN" ();
  }

let print r =
  Report.section "E20 / §3 — multi-bit ECN: reading the bottleneck queue end to end";
  Report.kv "path" "host - sw0 - sw1 (1 Gb/s bottleneck) - sw2 - host; congestion from 300us";
  Report.blank ();
  let row v =
    [
      v.variant;
      string_of_int (List.length v.samples);
      string_of_int v.distinct_levels;
      Report.f2 v.correlation;
      string_of_int v.marks_before_congestion;
    ]
  in
  Report.table
    ~headers:[ "variant"; "rx packets"; "signal levels seen"; "corr. w/ occupancy"; "false marks" ]
    ~rows:[ row r.multibit; row r.single_bit ];
  Report.blank ();
  Report.kv "no marks before congestion"
    (if r.multibit.marks_before_congestion = 0 && r.single_bit.marks_before_congestion = 0 then
       "PASS"
     else "FAIL");
  Report.kv "multi-bit signal tracks the bottleneck (corr > 0.8)"
    (if r.multibit.correlation > 0.8 then "PASS" else "FAIL");
  Report.kv "multi-bit carries more information than 1-bit"
    (if
       r.multibit.distinct_levels > r.single_bit.distinct_levels
       && r.multibit.correlation > r.single_bit.correlation
     then "PASS"
     else "FAIL")

let name = "ecn"
