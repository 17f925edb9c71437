(* E26 — consistent event-driven network updates under chaos.

   An update storm on a ring of 8: the controller two-phase-commits a
   new policy version every ~90 us (alternating all-clockwise with a
   split policy that sends far destinations counter-clockwise), while
   hosts stream version-stamped traffic whose routes the storm keeps
   moving. The chaos leg layers on top of the storm: two mid-update
   link flaps (each one an event-driven trigger for a precomputed
   backup policy — E12's fast reroute, now as a checked update),
   control-plane op loss (Faults.Op_loss), and CP churn
   (Faults.Churn arming crash injections that trip per-channel
   quarantines, so ops are also *dropped*, not just lost).

   What must hold, and is pinned by golden digests at shards 1/2/4: the
   mixed-version forwarding counter is exactly zero (no packet ever
   observes two policy versions), every proposed update commits or
   cleanly rolls back (nothing left in flight), and the control-op
   books balance: attempts = lost + quarantine-dropped + acked (first
   + duplicate + late).

   Determinism across shard counts comes from controller replication:
   every shard runs an identical controller replica driving shadow
   Control_plane instances for ALL switches (per-switch seeds, so op
   timing, jitter, loss verdicts and quarantine trips agree
   everywhere); only the replica owning a switch applies the device
   mutation. Replicas never communicate — every protocol input is a
   pure function of (seed, switch). *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Control_plane = Evcore.Control_plane
module Host = Evcore.Host
module Arch = Evcore.Arch
module Program = Evcore.Program
module Policy = Netupd.Policy
module Agent = Netupd.Agent
module Commit = Netupd.Commit
module Controller = Netupd.Controller

let name = "netupd"

let switches = 8
let topo () = Topology.ring ~switches ()
let addr_of_host h = Ipv4_addr.of_octets 10 0 0 h
let host_of_addr a = Ipv4_addr.to_int a land 0xff

type leg = Clean | Chaos

let leg_label = function Clean -> "clean" | Chaos -> "chaos"

(* ------------------------------------------------------------------ *)
(* Scenario parameters (shared by run, gen_golden and the tests)       *)

let horizon = Sim_time.us 700

(* Update storm: a proposal every 90 us, alternating directions-split
   policies so routes genuinely move. *)
let storm_times = List.map Sim_time.us [ 50; 140; 230; 320; 410 ]

let storm_policy i =
  if i mod 2 = 0 then Policy.ring_threshold ~switches ~ccw_at:5 ~name:"split5" ()
  else Policy.ring_uniform ~switches ~name:"cw" ()

(* Chaos: two link flaps, both intra-shard at every shard count in
   {1,2,4} (contiguous partition of 8 switches: link 0 = sw0-sw1,
   link 4 = sw4-sw5). Trace plans with zero down-jitter make the
   outage window a compile-time constant — which is what lets every
   controller replica schedule the reroute trigger without having
   observed the (shard-local) link event itself. *)
type flap = { fl_link : int; fl_at : Sim_time.t; fl_down : Sim_time.t }

let flaps =
  [
    { fl_link = 0; fl_at = Sim_time.us 120; fl_down = Sim_time.us 50 };
    { fl_link = 4; fl_at = Sim_time.us 300; fl_down = Sim_time.us 50 };
  ]

let detect_delay = Sim_time.us 2

(* CP-op loss window and probability (chaos leg). Chaos subsides well
   before the horizon so in-flight updates can finish: a wedged update
   at the horizon is a protocol failure, not a truncation artefact. *)
let loss_window = (Sim_time.us 100, Sim_time.us 400)
let loss_p = 0.25

(* CP churn (chaos leg): every 90 us one of these switches' control
   channels gets its next op armed to crash, tripping a quarantine. *)
let churn_switches = [ 1; 3; 6 ]
let churn_plan = Faults.Schedule.Periodic { start = Sim_time.us 110; period = Sim_time.us 90; jitter = 0 }
let churn_stop = Sim_time.us 400

let commit_cfg () = Commit.default_config ()

let sup_config () =
  {
    (Resil.Supervisor.default_config ()) with
    Resil.Supervisor.policy = Resil.Policy.Quarantine;
    base_backoff = Sim_time.us 15;
    max_backoff = Sim_time.us 60;
  }

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

(* Mutable run handles: agents are created before the run (the program
   closures capture them at build time); each shard's on_shard appends
   its controller replica and invariant checker. Only read the
   controllers/invariants of a 1-shard run for reporting — at higher
   shard counts the replicas are byte-identical by construction (that
   is the property under test). *)
type handles = {
  agents : Agent.t array;
  mutable controllers : (int * Controller.t) list;  (* shard -> replica *)
  mutable invariants : (int * Resil.Invariants.t) list;
  detections : int Atomic.t;  (* Event_switch.on_link_change observations *)
  churn_crashes : int Atomic.t;
}

let program agents sw : Program.spec =
 fun _install_ctx ->
  let agent = agents.(sw) in
  Program.make ~name:"netupd-fwd"
    ~ingress:(fun _ctx pkt ->
      match pkt.Packet.ip with
      | None -> Program.Drop
      | Some ip -> (
          let key = host_of_addr ip.Ipv4.dst in
          match Agent.decide agent pkt ~key with
          | -1 -> Program.Drop
          | port -> Program.Forward port))
    (* Subscribe to PHY link events so the data plane's view of the
       flap shows up in the switch's handled-event metrics. *)
    ~link_change:(fun _ctx _ev -> ())
    ()

let switch_config ~seed sw =
  let cfg = Event_switch.default_config Arch.event_pisa_full in
  { cfg with Event_switch.seed = seed + (31 * sw) }

(* Version-stamped UDP traffic. Two flows per host: a far destination
   (+5 clockwise — rerouted counter-clockwise by the split policy and
   by most backup policies) and a near one (+2). Sends stop 120 us
   before the horizon so the network is fully drained at the end. *)
let traffic ~seed ~until (ctx : Parsim.shard_ctx) =
  let stop = until - Sim_time.us 120 in
  if stop <= 0 then invalid_arg "E26: until must exceed the 120 us drain margin";
  List.iter
    (fun (h, host) ->
      let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
      List.iter
        (fun (d, sport) ->
          let dst = (h + d) mod switches in
          let k = ref 0 in
          let rec next at =
            if at < stop then begin
              Scheduler.post ctx.Parsim.sched ~at (fun () ->
                  Host.send host
                    (Packet.udp_packet ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                       ~src_port:sport ~dst_port:(6000 + dst) ~payload_len:96 ()));
              incr k;
              next (at + Sim_time.us 6 + Sim_time.ns (Stats.Rng.int rng 500))
            end
          in
          next (Sim_time.us 8 + (h * Sim_time.ns 137) + Sim_time.ns (Stats.Rng.int rng 500)))
        [ (5, 4000 + h); (2, 4100 + h) ])
    ctx.Parsim.hosts

let wire ~leg ~seed ~until h (ctx : Parsim.shard_ctx) =
  let sched = ctx.Parsim.sched in
  let owned sw = List.mem_assoc sw ctx.Parsim.switches in
  (* Per-switch CP supervisors (chaos leg): seeded by switch id, so
     every replica's quarantine backoff timeline is identical. *)
  let sups =
    match leg with
    | Clean -> None
    | Chaos ->
        Some
          (Array.init switches (fun sw ->
               Resil.Supervisor.create ~sched ~config:(sup_config ()) ~seed:(seed + (977 * (sw + 1))) ()))
  in
  let lost =
    match leg with
    | Clean -> None
    | Chaos ->
        let start, stop = loss_window in
        let ol =
          Faults.Op_loss.create ~seed:(seed + 555) ~targets:switches ~drop_p:loss_p ~start ~stop ()
        in
        Some (fun ~switch ~now -> Faults.Op_loss.lost ol ~target:switch ~now)
  in
  let agents_opt =
    Array.init switches (fun sw -> if owned sw then Some h.agents.(sw) else None)
  in
  let ctrl =
    Controller.create ~sched ~switches ~agents:agents_opt
      ~initial:(Policy.with_version (Policy.ring_uniform ~switches ~name:"cw" ()) 1)
      ?sup:(Option.map (fun arr sw -> Some arr.(sw)) sups)
      ?lost ~commit:(commit_cfg ()) ~seed:(seed + 101) ()
  in
  h.controllers <- (ctx.Parsim.shard, ctrl) :: h.controllers;
  (* The storm. *)
  List.iteri
    (fun i at ->
      Scheduler.post ~cls:Scheduler.Netupd sched ~at (fun () ->
          Controller.propose ctrl (storm_policy i)))
    storm_times;
  (match leg with
  | Clean -> ()
  | Chaos ->
      (* Link flaps — only the shard owning the link drives the PHY. *)
      List.iter
        (fun fl ->
          match List.assoc_opt fl.fl_link ctx.Parsim.links with
          | None -> ()
          | Some l ->
              Faults.Flapper.attach ~sched
                ~rng:(Stats.Rng.create ~seed:(seed + 303 + fl.fl_link))
                ~stop:until ~plan:(Faults.Schedule.Trace [ fl.fl_at ]) ~down_for:fl.fl_down
                ~down_jitter:0 l)
        flaps;
      (* Every switch reports PHY transitions to the controller layer;
         count them to assert the data plane really saw the flaps. *)
      List.iter
        (fun (_, sw) -> Event_switch.on_link_change sw (fun ~port:_ ~up:_ -> Atomic.incr h.detections))
        ctx.Parsim.switches;
      (* Event-driven reroute: link down -> precomputed backup policy;
         link up -> back to the primary. Trace-plan flaps with zero
         jitter mean every replica knows the event times exactly. *)
      List.iter
        (fun fl ->
          Scheduler.post ~cls:Scheduler.Netupd sched ~at:(fl.fl_at + detect_delay) (fun () ->
              Controller.propose ctrl
                (Policy.ring_avoiding ~switches ~link:fl.fl_link
                   ~name:(Printf.sprintf "avoid-l%d" fl.fl_link) ()));
          Scheduler.post ~cls:Scheduler.Netupd sched
            ~at:(fl.fl_at + fl.fl_down + detect_delay)
            (fun () -> Controller.propose ctrl (Policy.ring_uniform ~switches ~name:"cw" ())))
        flaps;
      (* CP churn: arm crash injections against the control channels. *)
      match sups with
      | None -> ()
      | Some arr ->
          let ops =
            churn_switches
            |> List.filter_map (fun sw ->
                   Resil.Supervisor.find_key arr.(sw) ~name:"cp.op"
                   |> Option.map (fun key ->
                          ( Printf.sprintf "crash-cp%d" sw,
                            fun () ->
                              Resil.Supervisor.inject_crash key ~n:1;
                              Atomic.incr h.churn_crashes )))
            |> Array.of_list
          in
          Faults.Churn.attach ~sched ~rng:(Stats.Rng.create ~seed:(seed + 606)) ~stop:churn_stop
            ~plan:churn_plan ~ops ());
  (* Runtime safety checks: no mixed-version forwarding, no wedged
     update. Kept out of the metrics registry so digests only carry
     simulation state. *)
  let inv = Resil.Invariants.create ~sched ~policy:Resil.Invariants.Record ~period:(Sim_time.us 25) () in
  Controller.register_invariants ~wedge_bound:(Sim_time.us 300) ctrl inv;
  Resil.Invariants.start inv ~stop:until;
  h.invariants <- (ctx.Parsim.shard, inv) :: h.invariants;
  (* Final-state metrics export, scheduled at the horizon (the last
     event of the run): controller books from shard 0's replica (all
     replicas agree), per-switch agent + CP series from the owner. *)
  Scheduler.post ~cls:Scheduler.Netupd sched ~at:until (fun () ->
      if ctx.Parsim.shard = 0 then Controller.export_metrics ctrl ctx.Parsim.metrics;
      List.iter
        (fun (swid, _) ->
          let labels = [ ("switch", string_of_int swid) ] in
          Agent.export_metrics ~labels h.agents.(swid) ctx.Parsim.metrics;
          Control_plane.export_metrics ~labels (Controller.cp ctrl swid) ctx.Parsim.metrics)
        ctx.Parsim.switches);
  traffic ~seed ~until ctx

let scenario ?(leg = Clean) ?(shards = 1) ?(record_trace = true) ~seed ~until () =
  let agents =
    Array.init switches (fun _ -> Agent.create ~keys:switches ~edge_port:(fun p -> p = 0) ())
  in
  let h =
    {
      agents;
      controllers = [];
      invariants = [];
      detections = Atomic.make 0;
      churn_crashes = Atomic.make 0;
    }
  in
  let cfg =
    Parsim.config ~shards ~record_trace ~until
      ~switch_config:(switch_config ~seed)
      ~program:(program agents)
      ~on_shard:(wire ~leg ~seed ~until h)
      ()
  in
  (cfg, h)

(* ------------------------------------------------------------------ *)
(* Golden digests (shared with gen_golden.exe and test_golden.ml)      *)

let golden_until = horizon

let golden =
  {
    Conformance.name = "e26";
    seeds = [ 42; 7 ];
    (* Only 1, 2 and 4: every other count cuts a flapped chaos-leg link
       (sw0-sw1 at 6-8 shards, sw4-sw5 at 3, 5 and 8) across shards,
       and cross-shard links cannot fail. *)
    shards = [ 1; 2; 4 ];
    topo;
    legs =
      (fun ~shards ~seed ->
        List.map
          (fun leg -> (Some (leg_label leg), fst (scenario ~leg ~shards ~seed ~until:golden_until ())))
          [ Clean; Chaos ]);
  }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type leg_result = {
  leg : string;
  proposals : int;
  committed : int;
  rolled_back : int;
  superseded : int;
  final_version : int;
  in_flight_at_end : bool;  (** must be false: commit or roll back, never wedge *)
  replicas_agree : bool;  (** all shard replicas produced one protocol log *)
  mixed : int;  (** must be 0 *)
  unroutable : int;
  stamped : int;
  forwarded : int;
  attempts : int;
  lost_ops : int;
  acks : int;
  dup_acks : int;
  late_acks : int;
  retries : int;
  abandoned : int;
  canceled : int;
  applied : int;
  deduped : int;
  gc_skipped : int;
  cp_ops : int;
  cp_dropped : int;
  cp_notifications : int;
  cp_queue_hwm : int;
  books_ok : bool;  (** attempts = lost + dropped + all acks *)
  invariant_violations : int;
  link_detections : int;
  churn_crashes : int;
  host_received : int;
  schedule_digest : string;
}

type result = {
  seed : int;
  until : Sim_time.t;
  legs : leg_result list;
  runs : (string * handles Conformance.run list) list;
  all_conformant : bool;
  safe : bool;  (** mixed = 0, books balance, nothing wedged, no violations *)
}

(* Read from a sweep's first, sequential run: with one shard there is
   one controller replica and one copy of every churn crash. *)
let leg_result ~leg { Conformance.result = r; state = h; _ } =
  let ctrl = List.assoc 0 h.controllers in
  let st = Controller.stats ctrl in
  let sum f = Array.fold_left (fun acc a -> acc + f a) 0 h.agents in
  let cps = Controller.cps ctrl in
  let sum_cp f = Array.fold_left (fun acc cp -> acc + f cp) 0 cps in
  let attempts = st.Commit.attempts in
  let lost_ops = st.Commit.lost in
  let acks_total = st.Commit.acks + st.Commit.dup_acks + st.Commit.late_acks in
  let cp_dropped = sum_cp Control_plane.dropped_ops in
  {
    leg = leg_label leg;
    proposals = Controller.proposals ctrl;
    committed = Controller.committed ctrl;
    rolled_back = Controller.rolled_back ctrl;
    superseded = Controller.superseded ctrl;
    final_version = Controller.version ctrl;
    in_flight_at_end = Controller.in_flight_version ctrl <> None;
    replicas_agree =
      (let digests = List.map (fun (_, c) -> Controller.schedule_digest c) h.controllers in
       match digests with [] -> false | d :: rest -> List.for_all (( = ) d) rest);
    mixed = sum Agent.mixed;
    unroutable = sum Agent.unroutable;
    stamped = sum Agent.stamped;
    forwarded = sum Agent.forwarded;
    attempts;
    lost_ops;
    acks = st.Commit.acks;
    dup_acks = st.Commit.dup_acks;
    late_acks = st.Commit.late_acks;
    retries = st.Commit.retries;
    abandoned = st.Commit.abandoned;
    canceled = st.Commit.canceled;
    applied = st.Commit.applied;
    deduped = st.Commit.deduped;
    gc_skipped = st.Commit.gc_skipped;
    cp_ops = sum_cp Control_plane.ops;
    cp_dropped;
    cp_notifications = sum_cp Control_plane.notifications;
    cp_queue_hwm = Array.fold_left (fun acc cp -> max acc (Control_plane.queue_depth_hwm cp)) 0 cps;
    books_ok = attempts = lost_ops + cp_dropped + acks_total;
    invariant_violations =
      List.fold_left (fun acc (_, inv) -> acc + Resil.Invariants.violations inv) 0 h.invariants;
    link_detections = Atomic.get h.detections;
    churn_crashes = Atomic.get h.churn_crashes;
    host_received = Array.fold_left ( + ) 0 r.host_received;
    schedule_digest = Controller.schedule_digest ctrl;
  }

let run ?metrics ?(seed = 42) ?shard_counts ?(until = horizon) () =
  let t = topo () in
  let swept =
    List.map
      (fun leg ->
        ( leg,
          Conformance.sweep ?shard_counts t (fun ~shards ->
              scenario ~leg ~shards ~seed ~until ()) ))
      [ Clean; Chaos ]
  in
  let legs = List.map (fun (leg, runs) -> leg_result ~leg (List.hd runs)) swept in
  let runs = List.map (fun (leg, runs) -> (leg_label leg, runs)) swept in
  let safe =
    List.for_all
      (fun l ->
        l.mixed = 0 && l.books_ok && (not l.in_flight_at_end) && l.invariant_violations = 0
        && l.replicas_agree
        && l.committed + l.rolled_back + l.superseded = l.proposals)
      legs
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      List.iter
        (fun l ->
          let labels = [ ("leg", l.leg) ] in
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e26.proposals") l.proposals;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e26.committed") l.committed;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e26.rolled_back") l.rolled_back;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e26.mixed") l.mixed;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e26.cp_dropped") l.cp_dropped;
          (* Leg-aggregated control-plane series, same names as the
             per-switch Control_plane.export_metrics ones that feed the
             conformance digests. *)
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "cp.ops") l.cp_ops;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "cp.dropped_ops") l.cp_dropped;
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "cp.notifications") l.cp_notifications;
          Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels "cp.queue_depth") l.cp_queue_hwm)
        legs);
  {
    seed;
    until;
    legs;
    runs;
    all_conformant = List.for_all (fun (_, rs) -> Conformance.all_conformant rs) runs;
    safe;
  }

let print r =
  Report.section "E26 / consistent updates — two-phase commit under chaos";
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.until);
  Report.kv "topology" (Printf.sprintf "ring of %d, update storm of %d + event triggers" switches
                          (List.length storm_times));
  List.iter
    (fun l ->
      Report.blank ();
      Report.note
        (Printf.sprintf "%s leg%s:" l.leg
           (if l.leg = "chaos" then
              Printf.sprintf " (op loss p=%.2f, %d CP crash injections, %d link flaps)" loss_p
                l.churn_crashes (List.length flaps)
            else ""));
      Report.kv "updates proposed / committed / rolled back / superseded"
        (Printf.sprintf "%d / %d / %d / %d" l.proposals l.committed l.rolled_back l.superseded);
      Report.kv "final committed version" (string_of_int l.final_version);
      Report.kv "wedged in flight at horizon" (if l.in_flight_at_end then "YES (FAIL)" else "none");
      Report.kv "controller replicas agree" (if l.replicas_agree then "yes" else "NO");
      Report.kv "packets stamped / forwarded / received"
        (Printf.sprintf "%d / %d / %d" l.stamped l.forwarded l.host_received);
      Report.kv "mixed-version forwardings (must be 0)" (string_of_int l.mixed);
      Report.kv "unroutable" (string_of_int l.unroutable);
      Report.kv "control ops: attempts = lost + dropped + acks"
        (Printf.sprintf "%d = %d + %d + (%d+%d+%d) %s" l.attempts l.lost_ops l.cp_dropped l.acks
           l.dup_acks l.late_acks
           (if l.books_ok then "(balanced)" else "(IMBALANCED)"));
      Report.kv "retries / abandoned / canceled" (Printf.sprintf "%d / %d / %d" l.retries l.abandoned l.canceled);
      Report.kv "device applies / deduped" (Printf.sprintf "%d / %d" l.applied l.deduped);
      Report.kv "cp ops / notifications / queue HWM"
        (Printf.sprintf "%d / %d / %d" l.cp_ops l.cp_notifications l.cp_queue_hwm);
      Report.kv "invariant violations" (string_of_int l.invariant_violations);
      if l.leg = "chaos" then
        Report.kv "data-plane link-change detections" (string_of_int l.link_detections);
      Report.kv "retry-schedule digest" (String.sub l.schedule_digest 0 12))
    r.legs;
  Report.blank ();
  Report.note "sharded conformance (merged trace + metrics vs 1 shard):";
  Report.table
    ~headers:[ "leg"; "shards"; "rx"; "trace"; "conform" ]
    ~rows:
      (List.concat_map
         (fun (leg, runs) ->
           List.map
             (fun (v : handles Conformance.run) ->
               [
                 leg;
                 string_of_int v.shards;
                 string_of_int (Array.fold_left ( + ) 0 v.result.host_received);
                 Conformance.short "trace" v;
                 (if v.conformant then "ok" else "DIVERGED");
               ])
             runs)
         r.runs);
  Report.blank ();
  Report.kv "all variants conformant" (if r.all_conformant then "PASS" else "FAIL");
  Report.kv "update protocol safe (mixed=0, books balance, no wedge)"
    (if r.safe then "PASS" else "FAIL")
