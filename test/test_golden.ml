(* Golden conformance: the canonical sequential digests of the golden
   scenarios (seeds 42 and 7, recorded in test/golden/ by
   gen_golden.ml) must be reproduced byte-for-byte by every shard
   count — the tentpole guarantee pinned to files under review, so a
   silent behaviour change in any layer (scheduler, switch pipeline,
   parsim barrier, adaptive horizon) fails loudly.

   Every golden file holds "label hex" digest lines: E23 pins its
   merged trace and merged metrics (MD5), E24-E26 pin their app legs,
   and E27 pins the order-independent arrival digest of a k=16
   fat-tree streaming run whose full trace would be unreasonable to
   commit. *)

module Conformance = Experiments.Conformance
module E23 = Experiments.E23_scale

let read_digest_golden file =
  let path = Filename.concat "golden" file in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.index_opt line ' ' with
        | Some i ->
            go
              ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
              :: acc)
        | None -> go acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_digests ~name ~seed golden got =
  Alcotest.(check int) "golden digest count" (List.length got) (List.length golden);
  List.iter
    (fun (label, want) ->
      match List.assoc_opt label got with
      | Some hex ->
          Alcotest.(check string) (Printf.sprintf "%s seed %d: %s" name seed label) want hex
      | None -> Alcotest.failf "%s seed %d: digest %s missing" name seed label)
    golden

let variant_name shards = if shards = 1 then "sequential" else Printf.sprintf "%d-shard" shards

let test_variant (g : Conformance.golden) ~seed ~shards () =
  let golden = read_digest_golden (Conformance.golden_file g seed) in
  check_digests ~name:(g.name ^ " " ^ variant_name shards) ~seed golden
    (Conformance.golden_digests g ~shards ~seed)

(* The sharded runs must also agree on the merged metrics snapshot —
   the trace digest pins arrivals, this pins the counters. *)
let test_metrics_conformance ~seed () =
  let run ~shards = Parsim.run (E23.golden_scenario ~shards ~seed ()) (E23.topo ()) in
  let seq = run ~shards:1 in
  List.iter
    (fun shards ->
      let r = run ~shards in
      Alcotest.(check bool) "cross-shard messages flowed" true (r.Parsim.cross_sent > 0);
      Alcotest.(check string)
        (Printf.sprintf "metrics json, %d shards, seed %d" shards seed)
        seq.Parsim.metrics_json r.Parsim.metrics_json)
    [ 2; 4 ]

(* The guarantee the goldens pin rests on no entity seeing two arrivals
   on one picosecond; assert every leg of every pinned scenario actually
   runs tie-free. *)
let test_tie_free (g : Conformance.golden) ~seed () =
  List.iter
    (fun (leg, cfg) ->
      let r = Parsim.run cfg (g.topo ()) in
      Alcotest.(check int)
        (Printf.sprintf "%s same-instant arrivals, seed %d" (Option.value leg ~default:g.name) seed)
        0 r.Parsim.tie_arrivals)
    (g.legs ~shards:1 ~seed)

let suite =
  List.concat_map
    (fun (g : Conformance.golden) ->
      List.concat_map
        (fun seed ->
          List.map
            (fun shards ->
              Alcotest.test_case
                (Printf.sprintf "%s: %s reproduces golden (seed %d)" g.name
                   (variant_name shards) seed)
                `Quick (test_variant g ~seed ~shards))
            g.shards)
        g.seeds)
    Experiments.Registry.goldens
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "e23: merged metrics conform (seed %d)" seed)
          `Quick (test_metrics_conformance ~seed))
      E23.golden.seeds
  @ List.concat_map
      (fun (g : Conformance.golden) ->
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "%s: golden scenario tie-free (seed %d)" g.name seed)
              `Quick (test_tie_free g ~seed))
          g.seeds)
      Experiments.Registry.goldens
