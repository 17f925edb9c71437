(* Determinism regression: the same seeded workload run twice must
   produce byte-identical trace records and byte-identical metrics
   snapshots.  Wall-clock profiling is excluded ([set_metrics
   ~wall:false]) because it is the one intentionally nondeterministic
   series. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Event_switch = Evcore.Event_switch
module M = Obs.Metrics

let mk_pkt ~payload_len i =
  Netcore.Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.host ~subnet:1 (1 + (i mod 8)))
    ~dst:(Netcore.Ipv4_addr.host ~subnet:2 1)
    ~src_port:(1000 + (i mod 16))
    ~dst_port:80 ~payload_len ()

(* A seeded random workload through a live event switch: random
   injection times, sizes and input ports, with detections and
   transmissions recorded in the trace. *)
let run_once ?(drive = fun sched -> Scheduler.run sched) ~seed () =
  let sched = Scheduler.create () in
  let trace = ref [] in
  let record ~time msg = trace := (time, msg) :: !trace in
  let reg = M.create () in
  Scheduler.set_metrics ~wall:false sched reg;
  let config = Event_switch.default_config Evcore.Arch.event_pisa_full in
  let spec, detector =
    Apps.Microburst.program ~slots:256 ~threshold_bytes:20_000 ~out_port:(fun _ -> 1) ()
  in
  let sw = Event_switch.create ~sched ~config ~program:spec () in
  Event_switch.set_port_tx sw ~port:1 (fun pkt ->
      record ~time:(Scheduler.now sched)
        (Printf.sprintf "tx len=%d" (Netcore.Packet.len pkt)));
  let rng = Stats.Rng.create ~seed in
  for i = 0 to 299 do
    let at = Sim_time.ns (Stats.Rng.int rng 50_000) in
    let payload_len = 64 + Stats.Rng.int rng 1000 in
    let port = Stats.Rng.int rng 3 in
    let pkt = mk_pkt ~payload_len i in
    ignore
      (Scheduler.schedule sched ~at (fun () -> Event_switch.inject sw ~port pkt))
  done;
  drive sched;
  List.iter
    (fun (d : Apps.Microburst.detection) ->
      record ~time:d.Apps.Microburst.time
        (Printf.sprintf "detect slot=%d" d.Apps.Microburst.flow_id))
    (Apps.Microburst.detections detector);
  Scheduler.export_metrics sched reg;
  Event_switch.export_metrics sw reg;
  (List.rev !trace, M.to_json reg)

let test_trace_identical () =
  let t1, _ = run_once ~seed:7 () and t2, _ = run_once ~seed:7 () in
  Alcotest.(check bool) "trace non-trivial" true (List.length t1 > 50);
  Alcotest.(check (list (pair int string))) "byte-identical trace" t1 t2

let test_metrics_identical () =
  let _, j1 = run_once ~seed:7 () and _, j2 = run_once ~seed:7 () in
  Alcotest.(check string) "byte-identical metrics JSON" j1 j2

let test_seed_changes_behaviour () =
  (* Sanity check that the workload actually depends on the seed —
     otherwise the two tests above would pass vacuously. *)
  let t1, _ = run_once ~seed:7 () and t2, _ = run_once ~seed:8 () in
  Alcotest.(check bool) "different seeds diverge" false (t1 = t2)

(* The same workload driven in [run ~until] slices or in parsim-style
   [drain_until_horizon] windows must not change a trace record or a
   metric. *)
let test_driven_identical drive () =
  let t1, j1 = run_once ~seed:7 () and t2, j2 = run_once ~drive ~seed:7 () in
  Alcotest.(check (list (pair int string))) "byte-identical trace" t1 t2;
  Alcotest.(check string) "byte-identical metrics JSON" j1 j2

let drive_sliced sched =
  for k = 1 to 60 do
    Scheduler.run ~until:(Sim_time.ns (k * 997)) sched
  done;
  Scheduler.run sched

let drive_windowed sched =
  let h = ref 0 in
  while Scheduler.next_time sched >= 0 do
    h := !h + Sim_time.ns 1_009;
    Scheduler.drain_until_horizon sched ~horizon:!h
  done

(* A full chaos run (E21) is the most adversarial determinism case:
   Poisson flap timelines, per-packet perturbation draws, overlapping
   outages and churn. Same seed must give byte-identical metrics. *)
let chaos_once ~seed ~profile =
  let m = M.create () in
  let r = Experiments.E21_chaos.run ~metrics:m ~seed ~profile () in
  (r, M.to_json m)

let test_chaos_identical () =
  List.iter
    (fun profile ->
      let r1, j1 = chaos_once ~seed:42 ~profile in
      let r2, j2 = chaos_once ~seed:42 ~profile in
      let name = Faults.Profile.to_string profile in
      Alcotest.(check string) (name ^ ": byte-identical metrics JSON") j1 j2;
      Alcotest.(check int)
        (name ^ ": identical receive count")
        r1.Experiments.E21_chaos.received r2.Experiments.E21_chaos.received;
      Alcotest.(check int) (name ^ ": packet conservation") 0 r1.Experiments.E21_chaos.balance;
      Alcotest.(check bool) (name ^ ": fault class exercised") true
        (Experiments.E21_chaos.exercised r1))
    (List.filter_map Faults.Profile.of_string Faults.Profile.names)

let test_chaos_seed_diverges () =
  let _, j1 = chaos_once ~seed:42 ~profile:Faults.Profile.Flaky_links in
  let _, j2 = chaos_once ~seed:43 ~profile:Faults.Profile.Flaky_links in
  Alcotest.(check bool) "different seeds diverge" false (j1 = j2)

(* Parsim extension: on a random topology with a random seed, a
   sharded run's merged metrics snapshot, merged trace, arrival digest
   and per-host counters must equal the sequential (1-shard) run's.
   Topologies are drawn from both builders up to k=4 fat trees (20
   switches) and 10-switch rings; the shard count ranges over
   everything the partitioner accepts for that size, capped at 8. *)

let parsim_until = Sim_time.us 180

let parsim_run ~topo_kind ~size ~seed ~shards () =
  let module Topology = Evcore.Topology in
  let topo, route =
    match topo_kind with
    | `Ring -> (Topology.ring ~switches:size (), Topology.ring_route ~switches:size)
    | `Fat_tree k -> (Topology.fat_tree ~k (), Topology.fat_tree_route ~k)
  in
  let num_hosts = topo.Topology.hosts in
  let addr_of_host h = Netcore.Ipv4_addr.of_octets 10 0 0 h in
  let host_of_addr a = Netcore.Ipv4_addr.to_int a land 0xff in
  let program : Evcore.Program.spec =
   fun _ ->
    Evcore.Program.make ~name:"qcheck-route"
      ~ingress:(fun ctx pkt ->
        match pkt.Netcore.Packet.ip with
        | Some ip ->
            Evcore.Program.Forward
              (route ~sw:ctx.Evcore.Program.switch_id
                 ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
        | None -> Evcore.Program.Drop)
      ()
  in
  let until = parsim_until in
  let cfg =
    Parsim.config ~shards ~record_trace:true ~record_digest:true ~until
      ~switch_config:(fun sw ->
        let cfg = Event_switch.default_config Evcore.Arch.sume_event_switch in
        { cfg with Event_switch.seed = seed + (31 * sw) })
      ~program:(fun _ -> program)
      ~on_shard:(fun ctx ->
        List.iter
          (fun (h, host) ->
            let dst = (h + 1) mod num_hosts in
            let flow =
              Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst)
                ()
            in
            let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
            ignore
              (Workloads.Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:128
                 ~rate_gbps:1. ~stop:(until - Sim_time.us 80)
                 ~jitter:(rng, Sim_time.ns 30)
                 ~send:(Evcore.Host.send host) ()
                : Workloads.Traffic.t))
          ctx.Parsim.hosts)
      ()
  in
  Parsim.run cfg topo

let qcheck_parsim_matches_sequential =
  let kind_to_string = function
    | `Ring -> "ring"
    | `Fat_tree k -> Printf.sprintf "fat-tree k=%d" k
  in
  let gen =
    QCheck.make
      ~print:(fun (kind, size, seed, shards) ->
        Printf.sprintf "(%s, size=%d, seed=%d, shards=%d)" (kind_to_string kind) size seed
          shards)
      QCheck.Gen.(
        (* k=4 (20 switches, 16 hosts) is the expensive case — keep it
           in the pool but less frequent than the small topologies. *)
        let* kind = frequency [ (3, return `Ring); (2, return (`Fat_tree 2)); (1, return (`Fat_tree 4)) ] in
        let* size = int_range 2 10 in
        (* fat_tree switch count depends only on k, not [size] *)
        let switches = match kind with `Ring -> size | `Fat_tree 2 -> 5 | `Fat_tree _ -> 20 in
        let* seed = int_range 0 10_000 in
        let* shards = int_range 2 (min 8 switches) in
        return (kind, size, seed, shards))
  in
  QCheck.Test.make ~count:12
    ~name:"random topology: sharded = sequential" gen
    (fun (kind, size, seed, shards) ->
      let seq = parsim_run ~topo_kind:kind ~size ~seed ~shards:1 () in
      if Array.fold_left ( + ) 0 seq.Parsim.host_received = 0 then
        QCheck.Test.fail_report "no traffic delivered — vacuous comparison";
      (* The conformance guarantee requires no entity to see two
         arrivals on one picosecond ([Parsim.result.tie_arrivals]);
         random seeds occasionally collide two senders' grids — e.g.
         seed 1980 on the k=2 tree puts two packets on switch 0 at the
         same instant and the merge order is then legitimately
         unspecified. Discard those draws instead of comparing. *)
      QCheck.assume (seq.Parsim.tie_arrivals = 0);
      let par = parsim_run ~topo_kind:kind ~size ~seed ~shards () in
      if seq.Parsim.metrics_json <> par.Parsim.metrics_json then
        QCheck.Test.fail_report "merged metrics snapshots diverge";
      if seq.Parsim.trace <> par.Parsim.trace then
        QCheck.Test.fail_report "merged traces diverge";
      if seq.Parsim.arrival_digest <> par.Parsim.arrival_digest then
        QCheck.Test.fail_report "arrival digests diverge";
      seq.Parsim.host_received = par.Parsim.host_received
      && seq.Parsim.host_sent = par.Parsim.host_sent)

(* The adaptive horizon never executes more rounds than fixed windows
   of the minimum cross-link delay L would: every round advances the
   horizon by at least L, so the run fits in the ceil ((until + 1) / L)
   windows that tile [0, until]. L is read from the plan; E27's sparse
   leg measures how far below the bound sparse traffic lands. *)
let qcheck_adaptive_within_fixed_windows =
  let gen =
    QCheck.make
      ~print:(fun (size, seed, shards) ->
        Printf.sprintf "(ring size=%d, seed=%d, shards=%d)" size seed shards)
      QCheck.Gen.(
        let* size = int_range 4 10 in
        let* seed = int_range 0 10_000 in
        let* shards = int_range 2 (min 8 size) in
        return (size, seed, shards))
  in
  QCheck.Test.make ~count:10 ~name:"adaptive horizon: rounds within the fixed-window count" gen
    (fun (size, seed, shards) ->
      let r = parsim_run ~topo_kind:`Ring ~size ~seed ~shards () in
      let l =
        List.fold_left (fun acc (_, _, d) -> min acc d) max_int r.Parsim.plan.Parsim.pair_delays
      in
      let windows = (parsim_until + l) / l in
      if r.Parsim.rounds_executed > windows then
        QCheck.Test.fail_reportf "executed %d rounds > %d fixed windows of L=%d"
          r.Parsim.rounds_executed windows l;
      r.Parsim.rounds_executed > 1)

(* EFSM extension: a RANDOM per-flow transition table — random guards,
   register updates and next-states, optionally with timeout sweeps —
   driven by a random packet interleaving on a sharded ring must evolve
   identically at every shard count. The
   drop decision depends on the flow's post-transition state, so a
   divergence in any flow's state evolution surfaces in the merged
   trace, and the exporter puts [pisa.efsm.state_hash] in the merged
   metrics, so it also surfaces as a register-level digest mismatch. *)

module Efsm = Pisa.Efsm

let operand_to_string = function
  | Efsm.Const n -> string_of_int n
  | Efsm.State -> "state"
  | Efsm.Input -> "in"
  | Efsm.Reg r -> Printf.sprintf "r%d" r

let rec guard_to_string = function
  | Efsm.Always -> "true"
  | Efsm.Cmp (c, a, b) ->
      let op =
        match c with
        | Efsm.Eq -> "=="
        | Efsm.Ne -> "!="
        | Efsm.Lt -> "<"
        | Efsm.Le -> "<="
        | Efsm.Gt -> ">"
        | Efsm.Ge -> ">="
      in
      Printf.sprintf "%s %s %s" (operand_to_string a) op (operand_to_string b)
  | Efsm.All gs -> "(" ^ String.concat " && " (List.map guard_to_string gs) ^ ")"
  | Efsm.Any gs -> "(" ^ String.concat " || " (List.map guard_to_string gs) ^ ")"

let update_to_string u =
  let bin name a b = Printf.sprintf "%s(%s, %s)" name (operand_to_string a) (operand_to_string b) in
  match u with
  | Efsm.Set o -> operand_to_string o
  | Efsm.Add (a, b) -> bin "add" a b
  | Efsm.Sub (a, b) -> bin "sub" a b
  | Efsm.Sat_add (a, b) -> bin "sat_add" a b
  | Efsm.Sat_sub (a, b) -> bin "sat_sub" a b
  | Efsm.Min (a, b) -> bin "min" a b
  | Efsm.Max (a, b) -> bin "max" a b

let table_to_string table =
  String.concat "; "
    (List.map
       (fun (t : Efsm.transition) ->
         Printf.sprintf "on %d when %s => %d {%s}" t.Efsm.from_state
           (guard_to_string t.Efsm.guard) t.Efsm.next_state
           (String.concat "; "
              (List.map
                 (fun (a : Efsm.action) ->
                   Printf.sprintf "r%d = %s" a.Efsm.reg (update_to_string a.Efsm.update))
                 t.Efsm.actions)))
       table)

let gen_efsm_table =
  QCheck.Gen.(
    let operand =
      oneof
        [
          map (fun n -> Efsm.Const n) (int_bound 64);
          return Efsm.Input;
          return Efsm.State;
          map (fun r -> Efsm.Reg r) (int_bound 1);
        ]
    in
    let guard =
      frequency
        [
          (1, return Efsm.Always);
          ( 4,
            map3
              (fun c a b -> Efsm.Cmp (c, a, b))
              (oneofl [ Efsm.Eq; Efsm.Ne; Efsm.Lt; Efsm.Le; Efsm.Gt; Efsm.Ge ])
              operand operand );
        ]
    in
    let update =
      oneof
        [
          map (fun o -> Efsm.Set o) operand;
          map2 (fun a b -> Efsm.Add (a, b)) operand operand;
          map2 (fun a b -> Efsm.Sat_add (a, b)) operand operand;
          map2 (fun a b -> Efsm.Sat_sub (a, b)) operand operand;
          map2 (fun a b -> Efsm.Min (a, b)) operand operand;
          map2 (fun a b -> Efsm.Max (a, b)) operand operand;
        ]
    in
    let action = map2 (fun reg update -> { Efsm.reg; update }) (int_bound 1) update in
    let transition =
      let* from_state = int_bound 3 in
      let* g = guard in
      let* next_state = int_bound 3 in
      let* actions = list_size (int_bound 2) action in
      return { Efsm.from_state; guard = g; next_state; actions }
    in
    list_size (int_range 1 8) transition)

let efsm_parsim_run ~table ~timeout_us ~seed ~shards =
  let module Topology = Evcore.Topology in
  let switches = 4 in
  let topo = Topology.ring ~switches () in
  let addr_of_host h = Netcore.Ipv4_addr.of_octets 10 0 0 h in
  let host_of_addr a = Netcore.Ipv4_addr.to_int a land 0xff in
  let program : Evcore.Program.spec =
   fun ctx ->
    let e =
      Efsm.create ~alloc:ctx.Evcore.Program.alloc
        ?timeout:(if timeout_us = 0 then None else Some (Sim_time.us timeout_us))
        ~name:"q" ~entries:32 ~nregs:2 ~transitions:table ()
    in
    let sweep_timer =
      if timeout_us = 0 then None
      else Some (ctx.Evcore.Program.add_timer ~period:(Sim_time.us timeout_us))
    in
    Evcore.Program.make ~name:"qcheck-efsm"
      ~ingress:(fun ctx pkt ->
        match pkt.Netcore.Packet.ip with
        | Some ip ->
            (* Fold flows onto 32 keys so contexts are revisited. *)
            let key = Apps.Stateful_fw.key_of pkt land 31 in
            let o =
              Efsm.step e ~now:(ctx.Evcore.Program.now ()) ~key
                ~input:(Netcore.Packet.len pkt land 63)
            in
            (* Behaviour depends on the evolved state: an odd state
               drops, so any divergence shows up in the trace. *)
            if o.Efsm.state land 1 = 1 then Evcore.Program.Drop
            else
              Evcore.Program.Forward
                (Topology.ring_route ~switches ~sw:ctx.Evcore.Program.switch_id
                   ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
        | None -> Evcore.Program.Drop)
      ~timer:(fun ctx ev ->
        if sweep_timer = Some ev.Devents.Event.id then
          ignore (Efsm.sweep e ~now:(ctx.Evcore.Program.now ()) : int))
      ()
  in
  let until = Sim_time.us 120 in
  let cfg =
    Parsim.config ~shards ~record_trace:true ~until
      ~switch_config:(fun sw ->
        let cfg = Event_switch.default_config Evcore.Arch.event_pisa_full in
        { cfg with Event_switch.seed = seed + (31 * sw) })
      ~program:(fun _ -> program)
      ~on_shard:(fun ctx ->
        List.iter
          (fun (h, host) ->
            let dst = (h + 1) mod switches in
            let flow =
              Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst)
                ()
            in
            let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
            ignore
              (Workloads.Traffic.cbr ~sched:ctx.Parsim.sched ~flow
                 ~pkt_bytes:(96 + (64 * h))
                 ~rate_gbps:1.
                 ~stop:(until - Sim_time.us 60)
                 ~jitter:(rng, Sim_time.ns 30)
                 ~send:(Evcore.Host.send host) ()
                : Workloads.Traffic.t))
          ctx.Parsim.hosts)
      ()
  in
  Parsim.run cfg topo

let qcheck_efsm_evolution_conforms =
  let gen =
    QCheck.make
      ~print:(fun (table, timeout_us, seed) ->
        Printf.sprintf "(timeout=%dus, seed=%d, table=[%s])" timeout_us seed
          (table_to_string table))
      QCheck.Gen.(
        let* table = gen_efsm_table in
        let* timeout_us = oneofl [ 0; 30 ] in
        let* seed = int_range 0 10_000 in
        return (table, timeout_us, seed))
  in
  QCheck.Test.make ~count:8 ~name:"random EFSM table: identical across shard counts" gen
    (fun (table, timeout_us, seed) ->
      let run shards = efsm_parsim_run ~table ~timeout_us ~seed ~shards in
      let canon = run 1 in
      if not (String.length canon.Parsim.metrics_json > 2) then
        QCheck.Test.fail_report "empty metrics — vacuous comparison";
      List.for_all
        (fun shards ->
          let r = run shards in
          if r.Parsim.trace <> canon.Parsim.trace then
            QCheck.Test.fail_reportf "trace diverges at %d shards" shards;
          if r.Parsim.metrics_json <> canon.Parsim.metrics_json then
            QCheck.Test.fail_reportf "metrics (incl. efsm state_hash) diverge at %d shards"
              shards;
          r.Parsim.host_received = canon.Parsim.host_received)
        [ 2; 4 ])

(* CEP extension: the detector's [pisa.efsm.*] series must be
   shard-count-independent line for line, not only as a whole-snapshot
   digest — a stall or sweep counter drifting under partitioning would
   otherwise hide inside one opaque hash. The E25 SYN scenario
   exercises the full counter surface: per-event steps, broadcast
   window ticks (step_all) and idle-timeout sweeps. *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let efsm_metric_lines json =
  String.split_on_char '\n' json |> List.filter (fun l -> contains_substring l "pisa.efsm.")

let test_sharded_efsm_metrics_conform () =
  let module E25 = Experiments.E25_cep in
  let run shards =
    Parsim.run
      (E25.scenario E25.Syn ~shards ~seed:42 ~until:(Sim_time.us 400) ())
      (Evcore.Topology.ring ~switches:8 ())
  in
  let canon = run 1 in
  let canon_series = efsm_metric_lines canon.Parsim.metrics_json in
  let has sub = List.exists (fun l -> contains_substring l sub) canon_series in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("series pisa.efsm." ^ s ^ " exported") true (has ("pisa.efsm." ^ s)))
    [ "steps"; "stalls"; "fired"; "sweeps"; "evictions_timeout"; "occupancy"; "state_hash" ];
  List.iter
    (fun shards ->
      let r = run shards in
      Alcotest.(check (list string))
        (Printf.sprintf "%d-shard efsm series equal sequential" shards)
        canon_series
        (efsm_metric_lines r.Parsim.metrics_json))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "same seed, identical trace" `Quick test_trace_identical;
    Alcotest.test_case "same seed, identical metrics" `Quick test_metrics_identical;
    Alcotest.test_case "different seed diverges" `Quick test_seed_changes_behaviour;
    Alcotest.test_case "run in until-slices, identical trace" `Quick
      (test_driven_identical drive_sliced);
    Alcotest.test_case "windowed drain, identical trace" `Quick
      (test_driven_identical drive_windowed);
    Alcotest.test_case "chaos run, identical metrics" `Quick test_chaos_identical;
    Alcotest.test_case "chaos run, seed diverges" `Quick test_chaos_seed_diverges;
    Alcotest.test_case "sharded efsm metrics conform" `Quick
      test_sharded_efsm_metrics_conform;
    QCheck_alcotest.to_alcotest qcheck_parsim_matches_sequential;
    QCheck_alcotest.to_alcotest qcheck_adaptive_within_fixed_windows;
    QCheck_alcotest.to_alcotest qcheck_efsm_evolution_conforms;
  ]
