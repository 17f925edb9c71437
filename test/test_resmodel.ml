(* Tests for the FPGA resource model (Table 3). *)

module Rm = Resmodel.Resource_model

let test_table3_matches_paper () =
  let t = Rm.table3 () in
  Alcotest.(check (float 1e-9)) "LUT +0.5%" 0.5 (List.assoc "Lookup Tables" t);
  Alcotest.(check (float 1e-9)) "FF +0.4%" 0.4 (List.assoc "Flip Flops" t);
  Alcotest.(check (float 1e-9)) "BRAM +2.0%" 2.0 (List.assoc "Block RAM" t)

let test_event_logic_is_marginal () =
  let extra = Rm.sum Rm.event_components in
  let l, f, b = Rm.utilisation Rm.virtex7_690t extra in
  Alcotest.(check bool) "all under 2.5% of device" true (l < 0.025 && f < 0.025 && b < 0.025)

let test_baseline_plausible () =
  let base = Rm.sum Rm.baseline_components in
  let l, _, _ = Rm.utilisation Rm.virtex7_690t base in
  (* The P4->NetFPGA reference switch lands somewhere near half the
     device; the model must stay in a plausible band. *)
  Alcotest.(check bool) "baseline in 20-70% LUT band" true (l > 0.2 && l < 0.7)

let test_cost_arithmetic () =
  let component name luts ffs brams = { Rm.name; cost = { Rm.luts; ffs; brams } } in
  let s = Rm.sum [ component "a" 1 2 3; component "b" 10 20 30 ] in
  Alcotest.(check int) "luts" 11 s.Rm.luts;
  Alcotest.(check int) "ffs" 22 s.Rm.ffs;
  Alcotest.(check int) "brams" 33 s.Rm.brams;
  Alcotest.(check bool) "empty sum is zero" true (Rm.sum [] = { Rm.luts = 0; ffs = 0; brams = 0 })

(* Utilisation is each field's share of the device's capacity. *)
let test_utilisation_fractions () =
  let d = Rm.virtex7_690t in
  Alcotest.(check (list int))
    "XC7VX690T capacity" [ 433_200; 866_400; 1_470 ]
    [ d.Rm.capacity.Rm.luts; d.Rm.capacity.Rm.ffs; d.Rm.capacity.Rm.brams ];
  let l, f, b = Rm.utilisation d { Rm.luts = 43_320; ffs = 216_600; brams = 735 } in
  Alcotest.(check (list (float 1e-12))) "fractions" [ 0.1; 0.25; 0.5 ] [ l; f; b ];
  let l, f, b = Rm.utilisation d d.Rm.capacity in
  Alcotest.(check (list (float 0.))) "the whole device" [ 1.; 1.; 1. ] [ l; f; b ]

let suite =
  [
    Alcotest.test_case "table3 matches paper" `Quick test_table3_matches_paper;
    Alcotest.test_case "event logic marginal" `Quick test_event_logic_is_marginal;
    Alcotest.test_case "baseline plausible" `Quick test_baseline_plausible;
    Alcotest.test_case "cost arithmetic" `Quick test_cost_arithmetic;
    Alcotest.test_case "utilisation fractions" `Quick test_utilisation_fractions;
  ]
