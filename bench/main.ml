(* Benchmark harness: Bechamel microbenchmarks — one per reproduced
   artifact — of the hot kernel each experiment leans on, so simulator
   performance regressions are visible: event dispatch (Table 1), sketch
   updates (Table 2 workloads), the aggregation drain (Figure 3),
   pipeline admission (Figure 4 line rate), and the per-application
   primitives. The experiments themselves run from [evsim run].

   Usage: main.exe [--quick | --json FILE] *)

open Bechamel

let mk_pkt () =
  Netcore.Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.of_string "10.0.0.1")
    ~dst:(Netcore.Ipv4_addr.of_string "10.0.0.2")
    ~src_port:1234 ~dst_port:80 ~payload_len:86 ()

(* Table 1 kernel: firing + merging + dispatching one event through a
   live switch.  [metrics] optionally attaches a registry to the
   scheduler; with a disabled registry this measures the cost of the
   instrumentation branches alone. *)
let make_event_dispatch ~name ?metrics () =
  let sched = Eventsim.Scheduler.create () in
  let config = Evcore.Event_switch.default_config Evcore.Arch.event_pisa_full in
  let count = ref 0 in
  let program _ctx =
    Evcore.Program.make ~name:"bench"
      ~ingress:(fun _ctx _pkt -> Evcore.Program.Forward 0)
      ~user:(fun _ctx _ev -> incr count)
      ()
  in
  let sw = Evcore.Event_switch.create ~sched ~config ~program () in
  Evcore.Event_switch.set_port_tx sw ~port:0 (fun _ -> ());
  (match metrics with
  | Some reg -> Eventsim.Scheduler.set_metrics ~wall:false sched reg
  | None -> ());
  let ctx = Evcore.Event_switch.ctx sw in
  Test.make ~name
    (Staged.stage (fun () ->
         ctx.Evcore.Program.emit_user_event ~tag:1 ~data:2;
         Eventsim.Scheduler.run sched))

(* The pair must bracket the cost of observability: [event-dispatch]
   records scheduler metrics through an *enabled* registry, and
   [-metrics-off] attaches the same registry disabled (one load and
   branch per event). Attaching no registry at all to the baseline —
   as this kernel originally did — inverts the pair: "metrics off"
   then measures strictly more work than "metrics on". *)
let bench_event_dispatch =
  make_event_dispatch ~name:"table1/event-dispatch"
    ~metrics:(Obs.Metrics.create ~enabled:true ()) ()

let bench_event_dispatch_metrics_off =
  make_event_dispatch ~name:"table1/event-dispatch-metrics-off"
    ~metrics:(Obs.Metrics.create ~enabled:false ()) ()

(* Table 2 kernel: count-min sketch update+query (the monitoring
   workhorse). *)
let bench_cms =
  let alloc = Pisa.Register_alloc.create () in
  let cms = Pisa.Cms.create ~alloc ~width:1024 ~depth:3 ~counter_bits:32 () in
  let key = ref 0 in
  Test.make ~name:"table2/cms-update-query"
    (Staged.stage (fun () ->
         incr key;
         Pisa.Cms.update cms ~key:!key ~delta:1;
         ignore (Pisa.Cms.query cms ~key:!key)))

(* Table 2 kernel: one per-flow EFSM transition — lookup, guard
   evaluation, parallel register update, LRU bookkeeping — over a hot
   table of 1024 flows (the stateful-processing hot path of E24). *)
let bench_efsm =
  let e =
    Pisa.Efsm.create ~alloc:(Pisa.Register_alloc.create ()) ~name:"bench" ~entries:1024
      ~nregs:2
      ~transitions:
        [
          {
            Pisa.Efsm.from_state = 0;
            guard = Pisa.Efsm.Cmp (Pisa.Efsm.Ge, Pisa.Efsm.Reg 0, Pisa.Efsm.Const 1_000_000);
            next_state = 1;
            actions = [];
          };
          {
            Pisa.Efsm.from_state = 0;
            guard = Pisa.Efsm.Always;
            next_state = 0;
            actions =
              [
                {
                  Pisa.Efsm.reg = 0;
                  update = Pisa.Efsm.Sat_add (Pisa.Efsm.Reg 0, Pisa.Efsm.Input);
                };
                { Pisa.Efsm.reg = 1; update = Pisa.Efsm.Add (Pisa.Efsm.Reg 1, Pisa.Efsm.Const 1) };
              ];
          };
          { Pisa.Efsm.from_state = 1; guard = Pisa.Efsm.Always; next_state = 0; actions = [] };
        ]
      ()
  in
  let i = ref 0 in
  Test.make ~name:"table2/efsm-transition"
    (Staged.stage (fun () ->
         incr i;
         ignore (Pisa.Efsm.step e ~now:!i ~key:(!i land 1023) ~input:64 : Pisa.Efsm.outcome)))

(* E25 kernel: one compiled CEP pattern step — the SYN-signature
   automaton (within + count compiled onto the EFSM extern) consuming
   one encoded event over a hot table of 1024 victim keys, with a
   broadcast window tick every 256 events so armed countdowns decay as
   they would under the detector's timer. *)
let bench_cep_pattern =
  let c =
    Cep.Compile.compile
      ~tick_period:(Eventsim.Sim_time.us 10)
      (Apps.Syn_signature.pattern ~syns:8 ~window:(Eventsim.Sim_time.us 60))
  in
  let e =
    Cep.Compile.efsm ~alloc:(Pisa.Register_alloc.create ()) ~entries:1024 ~name:"bench-cep" c
      ()
  in
  let syn =
    Cep.Pattern.encode { Cep.Pattern.cls = Devents.Event.Ingress_packet; attr = 1 }
  in
  let i = ref 0 in
  Test.make ~name:"cep/pattern-step"
    (Staged.stage (fun () ->
         incr i;
         if !i land 255 = 0 then Pisa.Efsm.step_all e ~input:Cep.Pattern.tick_input;
         ignore (Pisa.Efsm.step e ~now:!i ~key:(!i land 1023) ~input:syn : Pisa.Efsm.outcome)))

(* Table 3 kernel: the resource-model composition. *)
let bench_resmodel =
  Test.make ~name:"table3/resource-model"
    (Staged.stage (fun () -> ignore (Resmodel.Resource_model.table3 ())))

(* Figure 3 kernel: aggregated shared-register event_add + drain. *)
let bench_shared_register =
  let sched = Eventsim.Scheduler.create () in
  let pipeline = Pisa.Pipeline.create ~sched () in
  let alloc = Pisa.Register_alloc.create () in
  let reg =
    Devents.Shared_register.create ~alloc ~pipeline ~mode:Devents.Shared_register.Aggregated
      ~name:"bench" ~entries:1024 ~width:32 ()
  in
  let i = ref 0 in
  Test.make ~name:"fig3/shared-register-agg"
    (Staged.stage (fun () ->
         incr i;
         let slot = !i land 1023 in
         Devents.Shared_register.event_add reg Devents.Shared_register.Enq_side slot 100;
         ignore (Devents.Shared_register.read reg slot)))

(* Figure 4 kernel: a full packet traversal (inject -> pipeline ->
   TM -> transmit) including enqueue/dequeue events. Packets come from
   an arena and are released at transmit, so steady state recycles one
   packet record instead of building a fresh header tree per run. *)
let bench_packet_path =
  let sched = Eventsim.Scheduler.create () in
  let config = Evcore.Event_switch.default_config Evcore.Arch.event_pisa_full in
  let spec, _ =
    Apps.Microburst.program ~threshold_bytes:1_000_000 ~out_port:(fun _ -> 1) ()
  in
  let sw = Evcore.Event_switch.create ~sched ~config ~program:spec () in
  let arena = Netcore.Packet_arena.create () in
  Evcore.Event_switch.set_port_tx sw ~port:1 (Netcore.Packet_arena.release arena);
  let src = Netcore.Ipv4_addr.of_string "10.0.0.1" in
  let dst = Netcore.Ipv4_addr.of_string "10.0.0.2" in
  Test.make ~name:"fig4/packet-traversal"
    (Staged.stage (fun () ->
         let pkt =
           Netcore.Packet_arena.acquire_udp arena ~src ~dst ~src_port:1234 ~dst_port:80
             ~payload_len:86 ()
         in
         Evcore.Event_switch.inject sw ~port:0 pkt;
         Eventsim.Scheduler.run sched))

(* Substrate + application-experiment kernels.

   The scheduler kernel measures one schedule+dispatch cycle against a
   queue that also holds parked far-future work (512 background timers),
   the shape every real experiment produces: the parked timers sit in
   the ladder's unsorted top tier, untouched by the hot event. *)
let bench_scheduler =
  let sched = Eventsim.Scheduler.create () in
  for i = 0 to 511 do
    Eventsim.Scheduler.post sched ~at:(Eventsim.Sim_time.ms 100 + i) (fun () -> ())
  done;
  Test.make ~name:"substrate/scheduler-event-ladder"
    (Staged.stage (fun () ->
         Eventsim.Scheduler.post_after sched ~delay:10 (fun () -> ());
         ignore (Eventsim.Scheduler.step sched)))

let bench_pifo =
  let pifo = Tmgr.Pifo.create () in
  let rng = Stats.Rng.create ~seed:7 in
  Test.make ~name:"substrate/pifo-push-pop"
    (Staged.stage (fun () ->
         ignore (Tmgr.Pifo.push pifo ~rank:(Stats.Rng.int rng 1000) ());
         ignore (Tmgr.Pifo.pop pifo)))

let bench_lpm =
  let table = Pisa.Match_table.lpm ~name:"bench" ~key_bits:32 in
  let () =
    for i = 0 to 255 do
      Pisa.Match_table.add_lpm table ~prefix:(i lsl 24) ~len:(8 + (i mod 17)) i
    done
  in
  let key = ref 0 in
  Test.make ~name:"substrate/lpm-lookup"
    (Staged.stage (fun () ->
         key := (!key + 0x01020304) land 0xffffffff;
         ignore (Pisa.Match_table.lookup table !key)))

let bench_meter =
  let meter = Pisa.Meter.create ~cir_bytes_per_sec:1e9 ~cbs:64_000 ~ebs:64_000 in
  let now = ref 0 in
  Test.make ~name:"e13/meter-mark"
    (Staged.stage (fun () ->
         now := !now + 800_000;
         ignore (Pisa.Meter.mark meter ~now_ps:!now ~bytes:1000)))

(* E26 kernel: one complete two-phase policy commit — install, flip,
   drain, GC across 8 switches over the modeled control plane — as
   whole-transaction wall time. Scheduler, agents and controller
   persist across iterations; each run proposes the next version
   (alternating two ring policies so every table genuinely changes)
   and drives the event loop until the update commits. *)
let bench_netupd_commit =
  let sched = Eventsim.Scheduler.create () in
  let agents =
    Array.init 8 (fun sw ->
        Some (Netupd.Agent.create ~switch:sw ~keys:8 ~edge_port:(fun p -> p = 0) ()))
  in
  let ctrl =
    Netupd.Controller.create ~sched ~switches:8 ~agents
      ~initial:(Netupd.Policy.with_version (Netupd.Policy.ring_uniform ~switches:8 ~name:"cw" ()) 1)
      ~seed:42 ()
  in
  let split = Netupd.Policy.ring_threshold ~switches:8 ~ccw_at:5 ~name:"split5" () in
  let cw = Netupd.Policy.ring_uniform ~switches:8 ~name:"cw" () in
  let i = ref 0 in
  Test.make ~name:"netupd/commit-latency"
    (Staged.stage (fun () ->
         incr i;
         Netupd.Controller.propose ctrl (if !i land 1 = 0 then cw else split);
         Eventsim.Scheduler.run sched))

(* E23 kernel: one full (short) fat-tree scale run per iteration, at a
   given shard count — the sequential-vs-sharded throughput curve as
   whole-simulation wall time. The simulated work is identical at
   every shard count (conformance guarantees it), so the estimates are
   directly comparable; on a single-core host the sharded entries
   price the synchronization overhead rather than any speedup. *)
let make_e23_run ~shards =
  let topo = Experiments.E23_scale.topo () in
  Test.make ~name:(Printf.sprintf "e23/scale-run-%dshard" shards)
    (Staged.stage (fun () ->
         let cfg =
           Experiments.E23_scale.scenario ~shards ~record_trace:false ~seed:42
             ~until:Experiments.E23_scale.golden_until ()
         in
         ignore (Parsim.run cfg topo : Parsim.result)))

let bench_e23_shards = List.map (fun shards -> make_e23_run ~shards) [ 1; 2; 4 ]

(* E27 kernel: the k=16 datacenter scenario at golden size (320
   switches, ~15k streaming Zipf flows, arrival digest on) — prices
   the adaptive-horizon round protocol and the streaming flow source
   at a topology 16x the E23 tree. Same caveat as E23: on a
   single-core host the sharded entries measure synchronization
   overhead, not speedup. *)
let make_e27_run ~shards =
  let topo = Experiments.E27_dcscale.topo () in
  Test.make ~name:(Printf.sprintf "e27/scale-run-%dshard" shards)
    (Staged.stage (fun () ->
         let cfg =
           Experiments.E27_dcscale.scenario ~shards ~seed:42
             ~knobs:Experiments.E27_dcscale.golden_knobs ()
         in
         ignore (Parsim.run cfg topo : Parsim.result)))

let bench_e27_shards = List.map (fun shards -> make_e27_run ~shards) [ 1; 4 ]

let benchmarks =
  Test.make_grouped ~name:"evpp"
    ([
      bench_event_dispatch;
      bench_event_dispatch_metrics_off;
      bench_cms;
      bench_efsm;
      bench_cep_pattern;
      bench_resmodel;
      bench_shared_register;
      bench_packet_path;
      bench_scheduler;
      bench_pifo;
      bench_lpm;
      bench_meter;
      bench_netupd_commit;
    ]
    @ bench_e23_shards @ bench_e27_shards)

let run_microbenches () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] benchmarks in
  let results = Analyze.all ols instance raw in
  Printf.printf "\nMicrobenchmarks (ns per run, OLS estimate)\n";
  Printf.printf "==========================================\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter (fun (name, est) -> Printf.printf "  %-40s %12.1f ns/run\n" name est) rows;
  rows

(* Persist the OLS estimates as a flat JSON baseline that
   [compare.exe old new] can diff across commits. *)
let write_json ~path rows =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"evpp-bench/1\",\n  \"results\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name est (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "\nbaseline written to %s (%d kernels)\n" path n

(* Chaos kernel: one packet over a link, with or without a
   zero-probability perturbation installed — the disabled-faults cost
   on the per-packet fast path. *)
let make_link_send ~name ~perturb () =
  let sched = Eventsim.Scheduler.create () in
  let delivered = ref 0 in
  let ep =
    { Tmgr.Link.deliver = (fun _ -> incr delivered); notify_status = (fun ~up:_ -> ()) }
  in
  let link = Tmgr.Link.create ~sched ~delay:10 ~a:ep ~b:ep () in
  if perturb then
    Faults.Perturb.attach ~rng:(Stats.Rng.create ~seed:1) Faults.Perturb.none link;
  let pkt = mk_pkt () in
  ( Test.make ~name
      (Staged.stage (fun () ->
           Tmgr.Link.send link ~from_a:true pkt;
           Eventsim.Scheduler.run sched)),
    link,
    delivered )

(* --quick: the tier-1 smoke pass.  Runs only the event-dispatch kernel
   with and without a disabled metrics registry attached, checks the
   disabled path really records nothing, and trips only on a gross
   overhead regression (the headline <5% number comes from the full
   harness; short quotas are too noisy for a tight assert).

   Each pair is timed interleaved — A, B, A, B, ... over [quick_rounds]
   short runs — and compared best to best. A host slowdown lasting a
   fraction of a second then costs both kernels a round each, instead
   of inflating whichever kernel happened to be timed during it. *)
let quick_rounds = 10

let run_quick () =
  let reg = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter reg "smoke.count" in
  Obs.Metrics.Counter.incr c;
  assert (Obs.Metrics.Counter.value c = 0);
  let estimate test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.1) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"quick" [ test ]) in
    let results = Analyze.all ols instance raw in
    let est = ref nan in
    Hashtbl.iter
      (fun _ r ->
        match Analyze.OLS.estimates r with Some [ e ] -> est := e | _ -> ())
      results;
    !est
  in
  let best_of_pair a b =
    let best_a = ref infinity and best_b = ref infinity in
    for _ = 1 to quick_rounds do
      best_a := Float.min !best_a (estimate a);
      best_b := Float.min !best_b (estimate b)
    done;
    (!best_a, !best_b)
  in
  let base, off =
    best_of_pair
      (make_event_dispatch ~name:"event-dispatch" ())
      (make_event_dispatch ~name:"event-dispatch-metrics-off"
         ~metrics:(Obs.Metrics.create ~enabled:false ()) ())
  in
  let overhead = (off -. base) /. base in
  Printf.printf "event-dispatch:              %10.1f ns/run\n" base;
  Printf.printf "event-dispatch, metrics off: %10.1f ns/run\n" off;
  Printf.printf "disabled-metrics overhead:   %+10.1f%%\n" (100. *. overhead);
  assert (Float.is_finite base && base > 0.);
  assert (Float.is_finite off && off > 0.);
  assert (overhead < 0.5);
  (* Chaos smoke: a zero-probability perturbation must perturb nothing
     (functional check, exact) and stay cheap on the per-packet path
     (measured, loose bound as above). *)
  let bare_test, bare_link, _ = make_link_send ~name:"link-send" ~perturb:false () in
  let off_test, off_link, off_delivered =
    make_link_send ~name:"link-send-faults-off" ~perturb:true ()
  in
  let bare, faults_off = best_of_pair bare_test off_test in
  assert (!off_delivered > 0);
  assert (!off_delivered = Tmgr.Link.delivered off_link);
  assert (Tmgr.Link.perturb_drops off_link = 0);
  assert (Tmgr.Link.perturb_dups off_link = 0);
  assert (Tmgr.Link.perturb_delays off_link = 0);
  assert (Tmgr.Link.lost bare_link = 0 && Tmgr.Link.lost off_link = 0);
  let chaos_overhead = (faults_off -. bare) /. bare in
  Printf.printf "link-send:                   %10.1f ns/run\n" bare;
  Printf.printf "link-send, faults off:       %10.1f ns/run\n" faults_off;
  Printf.printf "disabled-faults overhead:    %+10.1f%%\n" (100. *. chaos_overhead);
  assert (Float.is_finite bare && bare > 0.);
  assert (Float.is_finite faults_off && faults_off > 0.);
  assert (chaos_overhead < 0.5);
  print_endline "bench --quick OK"

let json_path () =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  if Array.exists (( = ) "--quick") Sys.argv then run_quick ()
  else
    match json_path () with
    | Some path -> write_json ~path (run_microbenches ())
    | None -> ignore (run_microbenches () : (string * float) list)
