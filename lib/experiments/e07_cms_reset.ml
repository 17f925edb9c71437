(* E7 — §1/§3: periodic count-min-sketch reset.

   Windowed heavy-hitter detection needs the sketch cleared at every
   window boundary. A data-plane timer resets exactly on time; the
   control plane resets late (channel latency + jitter + op-rate
   queueing) and pays one op per window, so windows smear into each
   other and per-window heavy-hitter sets degrade. Identical Zipf
   workloads drive both variants; truth is computed from the exact
   per-ideal-window counts. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Arch = Evcore.Arch
module Event_switch = Evcore.Event_switch
module Control_plane = Evcore.Control_plane

let window = Sim_time.us 500
let num_windows = 12
let threshold = 80
let key_space = 200
let rate_pps = 1_000_000.

type variant_result = {
  variant : string;
  mean_f1 : float;
  resets : int;
  reset_lag_mean_ns : float;
  reset_lag_max_ns : float;
  cp_ops : int;
}

type result = { timer : variant_result; control_plane : variant_result }

let flow_of_rank rank =
  Flow.make
    ~src:(Netcore.Ipv4_addr.host ~subnet:1 rank)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 rank)
    ~src_port:(1024 + rank) ~dst_port:80 ()

let key_of_rank rank = Flow.hash_addresses (flow_of_rank rank) land 0xffffff

(* One deterministic workload: (time, rank) arrivals. The hot set
   rotates every window (rank shifted by 37 per window), so counting
   part of a window under the previous window's sketch — what a late
   reset does — misattributes real volume. *)
let workload ~seed =
  let rng = Stats.Rng.create ~seed in
  let zipf = Stats.Dist.zipf ~n:key_space ~alpha:1.2 in
  let stop = num_windows * window in
  let rec go time acc =
    if time >= stop then List.rev acc
    else
      let gap = int_of_float (Stats.Dist.exponential rng ~rate:rate_pps *. 1e12) in
      let time = time + max 1 gap in
      let w = time / window in
      let rank = 1 + ((Stats.Dist.zipf_draw rng zipf - 1 + (w * 37)) mod key_space) in
      go time ((time, rank) :: acc)
  in
  go 0 []

let truth_sets arrivals =
  let sets = Array.make num_windows [] in
  let counts = Hashtbl.create 64 in
  let current = ref 0 in
  let flush w = if w < num_windows then begin
      sets.(w) <-
        Hashtbl.fold (fun key c acc -> if c >= threshold then key :: acc else acc) counts [];
      Hashtbl.reset counts
    end
  in
  List.iter
    (fun (time, rank) ->
      let w = time / window in
      while !current < w do
        flush !current;
        incr current
      done;
      if w < num_windows then
        let key = key_of_rank rank in
        Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
    arrivals;
  flush !current;
  sets

let f1 ~truth ~got =
  match (truth, got) with
  | [], [] -> 1.
  | _ ->
      let inter = List.length (List.filter (fun k -> List.mem k truth) got) in
      let p = if got = [] then 0. else float_of_int inter /. float_of_int (List.length got) in
      let r = if truth = [] then 1. else float_of_int inter /. float_of_int (List.length truth) in
      if p +. r = 0. then 0. else 2. *. p *. r /. (p +. r)

let run_variant ~arrivals ~truth mode arch =
  let sched = Scheduler.create () in
  let cp_ops_of = ref (fun () -> 0) in
  let mode_v, variant =
    match mode with
    | `Timer -> (Apps.Cms_reset.Timer_reset, "timer events")
    | `Cp seed ->
        let cp =
          Control_plane.create ~sched ~op_rate_per_sec:10_000.
            ~rng:(Stats.Rng.create ~seed) ()
        in
        (cp_ops_of := fun () -> Control_plane.ops cp);
        (Apps.Cms_reset.Control_plane_reset cp, "control-plane reset")
  in
  let spec, app =
    Apps.Cms_reset.program ~mode:mode_v ~window ~threshold_packets:threshold
      ~out_port:(fun _ -> 1) ()
  in
  let config = Event_switch.default_config arch in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> ());
  List.iter
    (fun (time, rank) ->
      Scheduler.post sched ~at:time (fun () ->
          let flow = flow_of_rank rank in
          Event_switch.inject sw ~port:0
            (Packet.udp_packet ~src:flow.Flow.src ~dst:flow.Flow.dst
               ~src_port:flow.Flow.src_port ~dst_port:flow.Flow.dst_port ~payload_len:100 ())))
    arrivals;
  Scheduler.run ~until:(num_windows * window) sched;
  let reports = Apps.Cms_reset.reports app in
  let scores =
    List.filter_map
      (fun (r : Apps.Cms_reset.window_report) ->
        if r.Apps.Cms_reset.window_index < num_windows then
          Some
            (f1
               ~truth:truth.(r.Apps.Cms_reset.window_index)
               ~got:(List.map fst r.Apps.Cms_reset.heavy_hitters))
        else None)
      reports
  in
  let lag = Apps.Cms_reset.reset_lag app in
  {
    variant;
    mean_f1 = (if scores = [] then 0. else Stats.Summary.mean (Array.of_list scores));
    resets = Apps.Cms_reset.resets app;
    reset_lag_mean_ns = Stats.Welford.mean lag;
    reset_lag_max_ns = (if Stats.Welford.count lag = 0 then 0. else Stats.Welford.max lag);
    cp_ops = !cp_ops_of ();
  }

let run ?(seed = 42) () =
  let arrivals = workload ~seed in
  let truth = truth_sets arrivals in
  {
    timer = run_variant ~arrivals ~truth `Timer Arch.event_pisa_full;
    control_plane = run_variant ~arrivals ~truth (`Cp seed) Arch.baseline_psa;
  }

let print r =
  Report.section "E7 / §1,§3 — CMS window reset: data-plane timer vs control plane";
  Report.kv "workload"
    (Printf.sprintf "Zipf(1.2) over %d keys, 1 Mpps, %d windows of %s" key_space num_windows
       (Report.time_ps window));
  Report.blank ();
  let row v =
    [
      v.variant;
      Report.f2 v.mean_f1;
      string_of_int v.resets;
      Report.ns v.reset_lag_mean_ns;
      Report.ns v.reset_lag_max_ns;
      string_of_int v.cp_ops;
    ]
  in
  Report.table
    ~headers:[ "variant"; "mean F1"; "resets"; "lag mean"; "lag max"; "CP ops" ]
    ~rows:[ row r.timer; row r.control_plane ];
  Report.blank ();
  Report.kv "timer resets on exact boundaries"
    (if r.timer.reset_lag_max_ns < 1000. then "PASS" else "FAIL");
  Report.kv "timer F1 at least as good"
    (if r.timer.mean_f1 >= r.control_plane.mean_f1 then "PASS" else "FAIL");
  Report.kv "control plane pays one op per window"
    (if r.control_plane.cp_ops >= num_windows - 1 then "PASS" else "FAIL")

let name = "cms-reset"
