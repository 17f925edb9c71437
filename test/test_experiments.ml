(* Smoke + invariant tests for the experiment registry.

   Each experiment's [run] is exercised (cheap ones directly; the full
   set is covered by the bench harness), and the registry's structure
   is validated so the CLI and bench never drift apart. *)

let test_registry_complete () =
  let names = Experiments.Registry.names () in
  Alcotest.(check bool) "at least 21 experiments" true (List.length names >= 21);
  List.iter
    (fun required ->
      if not (List.mem required names) then Alcotest.failf "missing experiment %s" required)
    [
      "table1"; "table2"; "table3"; "fig4-linerate"; "fig3-staleness"; "microburst"; "cms-reset";
      "hula"; "liveness"; "flowrate"; "aqm"; "frr"; "policer"; "netcache"; "tofino-emulation";
      "int-telemetry"; "ablations"; "migration"; "p4-equivalence"; "wfq"; "ecn"; "chaos";
      "resilience";
    ]

let test_registry_names_unique () =
  let names = Experiments.Registry.names () in
  let sorted = List.sort_uniq String.compare names in
  Alcotest.(check int) "no duplicate names" (List.length names) (List.length sorted)

let test_registry_find () =
  (match Experiments.Registry.find "table3" with
  | Some e -> Alcotest.(check string) "id" "E3" e.Experiments.Registry.experiment_id
  | None -> Alcotest.fail "table3 not found");
  Alcotest.(check bool) "unknown is None" true (Experiments.Registry.find "nope" = None)

let test_e3_reproduces_table3 () =
  let r = Experiments.E03_table3.run () in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (float 1e-9)) name expected
        (List.assoc name r.Experiments.E03_table3.increases))
    [ ("Lookup Tables", 0.5); ("Flip Flops", 0.4); ("Block RAM", 2.0) ]

let test_e6_shape () =
  let r = Experiments.E06_microburst.run () in
  let ed = r.Experiments.E06_microburst.event_driven in
  let sn = r.Experiments.E06_microburst.snappy in
  Alcotest.(check bool) "state reduction at least 4x" true
    (sn.Experiments.E06_microburst.state_bits >= 4 * ed.Experiments.E06_microburst.state_bits);
  Alcotest.(check (list int)) "event-driven finds exactly the culprits"
    r.Experiments.E06_microburst.culprit_slots ed.Experiments.E06_microburst.detected_slots

let test_e9_shape () =
  let r = Experiments.E09_liveness.run () in
  match
    ( r.Experiments.E09_liveness.event_driven.Experiments.E09_liveness.detection_latency_ns,
      r.Experiments.E09_liveness.cp_driven.Experiments.E09_liveness.detection_latency_ns )
  with
  | Some ed, Some cp -> Alcotest.(check bool) "event-driven 3x faster" true (ed *. 3. <= cp)
  | _ -> Alcotest.fail "a variant failed to detect the failure"

let test_e13_shape () =
  let r = Experiments.E13_policer.run () in
  match r.Experiments.E13_policer.points with
  | [ extern_m; t10; _; t1000 ] ->
      Alcotest.(check bool) "extern enforces CIR" true
        (extern_m.Experiments.E13_policer.error_vs_cir < 0.05);
      Alcotest.(check bool) "fine timer matches" true
        (t10.Experiments.E13_policer.error_vs_cir < 0.05);
      Alcotest.(check bool) "coarse refill starves" true
        (t1000.Experiments.E13_policer.error_vs_cir > 0.2)
  | _ -> Alcotest.fail "expected 4 points"

let test_e22_shape () =
  let r = Experiments.E22_resilience.run () in
  Alcotest.(check bool) "E22 acceptance claims hold" true (Experiments.E22_resilience.passes r);
  let q = Experiments.E22_resilience.find_leg r "quarantine" in
  Alcotest.(check bool) "invariant checker actually swept" true
    (q.Experiments.E22_resilience.invariant_passes > 0);
  let d = Experiments.E22_resilience.find_leg r "drop-event" in
  Alcotest.(check bool) "drop-event completes without trips" true
    (d.Experiments.E22_resilience.completed && d.Experiments.E22_resilience.trips = 0)

(* The shared sweep: one run per requested count, shard counts
   resolved, digest lines compared against the first run's. *)
let test_conformance_sweep () =
  let module E23 = Experiments.E23_scale in
  let r = E23.run ~shard_counts:[ 1; 2 ] ~until:E23.golden_until () in
  Alcotest.(check (list int)) "one run per count" [ 1; 2 ]
    (List.map (fun (v : unit Experiments.Conformance.run) -> v.shards) r.runs);
  List.iter
    (fun (v : unit Experiments.Conformance.run) ->
      Alcotest.(check (list string)) "digest labels" [ "trace"; "metrics" ] (List.map fst v.lines))
    r.runs;
  Alcotest.(check bool) "all conformant" true r.all_conformant

module Conformance = Experiments.Conformance
module E23 = Experiments.E23_scale

let md5 s = Digest.to_hex (Digest.string s)

let e23_sweep ?(seed = fun _ -> 42) shard_counts =
  Conformance.sweep ~shard_counts (E23.topo ()) (fun ~shards ->
      (E23.golden_scenario ~shards ~seed:(seed shards) (), shards))

(* A run's digest lines, the format the golden files pin: one per
   recording mode in a fixed order, each exactly the run's artefact,
   every label prefixed by the leg. *)
let test_conformance_digest_lines () =
  let cfg = { (E23.golden_scenario ~seed:42 ()) with Parsim.record_digest = true } in
  let r = Parsim.run cfg (E23.topo ()) in
  Alcotest.(check (list (pair string string)))
    "trace, arrivals, metrics"
    [
      ("fw.trace", md5 (String.concat "\n" r.Parsim.trace));
      ("fw.arrivals", r.Parsim.arrival_digest);
      ("fw.metrics", md5 r.Parsim.metrics_json);
    ]
    (Conformance.digests ~leg:"fw" cfg r);
  let bare = { cfg with Parsim.record_trace = false; record_digest = false } in
  Alcotest.(check (list string)) "metrics only" [ "metrics" ]
    (List.map fst (Conformance.digests bare (Parsim.run bare (E23.topo ()))))

(* Every run is compared against the first, not its predecessor; an
   auto count reads as the engine's pick; an empty sweep raises. *)
let test_conformance_sweep_flags () =
  let runs = e23_sweep ~seed:(fun shards -> if shards = 2 then 7 else 42) [ 1; 2; 4 ] in
  Alcotest.(check (list (pair int bool))) "shards, conformant"
    [ (1, true); (2, false); (4, true) ]
    (List.map (fun (v : int Conformance.run) -> (v.state, v.conformant)) runs);
  Alcotest.(check bool) "sweep not conformant" false (Conformance.all_conformant runs);
  let v = List.hd runs in
  Alcotest.(check string) "short digest" (String.sub (List.assoc "trace" v.lines) 0 12)
    (Conformance.short "trace" v);
  Alcotest.(check (list bool)) "exports" [ true; false ]
    (List.map (Conformance.exports v.result)
       [ [ "switch.events_fired" ]; [ "switch.events_fired"; "no.such.series" ] ]);
  Alcotest.(check (list int)) "auto count resolved"
    [ min (Parsim.recommended_domains ()) (E23.topo ()).Evcore.Topology.switches ]
    (List.map (fun (v : int Conformance.run) -> v.shards) (e23_sweep [ 0 ]));
  Alcotest.check_raises "empty shard list"
    (Invalid_argument "Conformance.sweep: empty shard_counts") (fun () -> ignore (e23_sweep []))

(* gen_golden.exe and the golden suite share one list: E23-E27, each
   replaying the sequential canon first, with one digest file per seed
   under test/golden/ and no stray file beside them. *)
let test_golden_files () =
  let goldens = Experiments.Registry.goldens in
  Alcotest.(check (list string)) "E23-E27" [ "e23"; "e24"; "e25"; "e26"; "e27" ]
    (List.map (fun (g : Conformance.golden) -> g.name) goldens);
  List.iter
    (fun (g : Conformance.golden) ->
      Alcotest.(check (list int)) (g.name ^ ": sequential first, rising")
        (List.sort_uniq compare (1 :: g.shards)) g.shards)
    goldens;
  Alcotest.(check string) "file name" "e23_seed42.digest" (Conformance.golden_file E23.golden 42);
  Alcotest.(check (list string)) "golden directory"
    (List.sort compare
       (List.concat_map
          (fun (g : Conformance.golden) -> List.map (Conformance.golden_file g) g.seeds)
          goldens))
    (List.sort compare (Array.to_list (Sys.readdir "golden")))

(* The sharded experiments' acceptance checks as `evsim run` and `evsim
   chaos --shards` print them. *)
let test_e23_sharded_chaos () =
  let c = E23.chaos ~shards:2 ~seed:7 () in
  Alcotest.(check int) "conservation residue" 0 c.E23.balance;
  Alcotest.(check bool) "conserved, flowing, faults fired" true (E23.chaos_passed c)

let test_e24_shape () =
  let module E24 = Experiments.E24_efsm in
  let r = E24.run () in
  Alcotest.(check bool) "conformant at every shard count" true r.E24.all_conformant;
  Alcotest.(check int) "single-hit traffic never stalls" 0 r.E24.uniform_stalls;
  Alcotest.(check bool) "skewed traffic stalls" true (r.E24.zipf_stalls > 0);
  Alcotest.(check bool) "efsm series exported" true
    (List.for_all
       (fun (_, runs) ->
         List.for_all
           (fun (v : unit Conformance.run) ->
             Conformance.exports v.result [ "pisa.efsm.steps"; "pisa.efsm.state_hash" ])
           runs)
       r.E24.runs)

let test_e25_shape () =
  let module E25 = Experiments.E25_cep in
  let r = E25.run () in
  Alcotest.(check bool) "conformant at every shard count" true r.E25.all_conformant;
  Alcotest.(check bool) "chaos leg conformant, detectors still match" true
    (r.E25.chaos_conformant && r.E25.chaos_alarms > 0);
  Alcotest.(check int) "every flood detected" r.E25.flood.attacks r.E25.flood.detected;
  Alcotest.(check bool) "bursts detected at the culprit port" true
    (r.E25.burst.bursts_detected > 0 && r.E25.burst.culprit_correct)

let test_e26_shape () =
  let module E26 = Experiments.E26_netupd in
  let r = E26.run () in
  Alcotest.(check bool) "conformant at every shard count" true r.E26.all_conformant;
  Alcotest.(check bool) "protocol safe (mixed = 0, books balance, no wedge)" true r.E26.safe;
  Alcotest.(check (list (pair string bool))) "legs commit; chaos sees its link flaps"
    [ ("clean", true); ("chaos", true) ]
    (List.map
       (fun (l : E26.leg_result) ->
         (l.leg, l.committed > 0 && (l.leg = "clean" || l.link_detections > 0)))
       r.E26.legs)

(* E27's sparse leg: the adaptive horizon must finish well inside the
   fixed-window round count of the same plan. *)
let test_e27_sparse_leg () =
  let s = Experiments.E27_dcscale.run_sparse ~seed:42 ~shards:4 in
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds < %d fixed windows" s.rounds s.windows)
    true
    (Experiments.E27_dcscale.sparse_passed s)

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry unique" `Quick test_registry_names_unique;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "E3 reproduces Table 3" `Quick test_e3_reproduces_table3;
    Alcotest.test_case "E6 shape claims" `Quick test_e6_shape;
    Alcotest.test_case "E9 shape claims" `Quick test_e9_shape;
    Alcotest.test_case "E13 shape claims" `Quick test_e13_shape;
    Alcotest.test_case "E22 shape claims" `Quick test_e22_shape;
    Alcotest.test_case "conformance sweep" `Quick test_conformance_sweep;
    Alcotest.test_case "conformance: digest lines" `Quick test_conformance_digest_lines;
    Alcotest.test_case "conformance: sweep flags" `Quick test_conformance_sweep_flags;
    Alcotest.test_case "golden files match the registry" `Quick test_golden_files;
    Alcotest.test_case "E23 sharded chaos conserves packets" `Quick test_e23_sharded_chaos;
    Alcotest.test_case "E24 shape claims" `Quick test_e24_shape;
    Alcotest.test_case "E25 shape claims" `Quick test_e25_shape;
    Alcotest.test_case "E26 shape claims" `Quick test_e26_shape;
    Alcotest.test_case "E27 sparse leg beats fixed windows" `Quick test_e27_sparse_leg;
  ]
