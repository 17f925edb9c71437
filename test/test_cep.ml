(* CEP compiler conformance: the compiled EFSM automaton must agree
   with the reference interpreter verdict-for-verdict on any event
   stream — deterministic cases for each combinator plus a QCheck
   property over random patterns and random streams (with ticks). *)

open Alcotest
module P = Cep.Pattern
module C = Cep.Compile
module I = Cep_interp
module Efsm = Pisa.Efsm
module Event = Devents.Event

type item = E of P.view | T

let item_to_string = function
  | E v -> Printf.sprintf "%s:%d" (Event.cls_name v.P.cls) v.P.attr
  | T -> "tick"

let stream_to_string s = String.concat " " (List.map item_to_string s)

(* Drive the compiled automaton for one instance (key 1). Ticks go
   through [step] rather than [step_all] — same rows, single flow. *)
let run_compiled ?(tick_period = Eventsim.Sim_time.us 1) pat stream =
  let c = C.compile ~tick_period pat in
  let e = C.efsm ~name:"cep-test" ~entries:16 c () in
  List.mapi
    (fun i item ->
      let input = match item with E v -> P.encode v | T -> P.tick_input in
      let o = Efsm.step e ~now:i ~key:1 ~input in
      C.is_match c o)
    stream

let run_interp ?(tick_period = Eventsim.Sim_time.us 1) pat stream =
  let it = I.create ~tick_period pat in
  List.map
    (function
      | E v -> I.feed it v
      | T ->
          I.tick it;
          false)
    stream

(* Event alphabet for the deterministic cases. *)
let a_cls = Event.Ingress_packet
let b_cls = Event.Buffer_overflow
let c_cls = Event.User_event
let a = P.atom ~label:"a" a_cls
let b = P.atom ~label:"b" b_cls
let c = P.atom ~label:"c" c_cls
let ev ?(attr = 0) cls = E { P.cls; attr }
let ea = ev a_cls
let eb = ev b_cls
let ec = ev c_cls

let both pat stream =
  let comp = run_compiled pat stream in
  let interp = run_interp pat stream in
  check (list bool)
    (Printf.sprintf "%s on [%s]" (P.to_string pat) (stream_to_string stream))
    interp comp;
  comp

let test_atom () =
  let m = both a [ eb; ea; ea; T; ea ] in
  check (list bool) "every a matches, b never" [ false; true; true; false; true ] m

let test_seq () =
  let p = P.seq [ a; b ] in
  let m = both p [ eb; ea; ea; eb; ea; eb ] in
  (* Leading b ignored; second a ignored at the b-frontier
     (skip-till-next-match); each a..b pair completes. *)
  check (list bool) "seq skip-till-next-match" [ false; false; false; true; false; true ] m

let test_seq_attr_guard () =
  let big = P.atom ~label:"big" ~lo:100 a_cls in
  let p = P.seq [ big; b ] in
  let m = both p [ ev ~attr:50 a_cls; eb; ev ~attr:200 a_cls; eb ] in
  check (list bool) "attr interval gates the atom" [ false; false; false; true ] m

let test_count () =
  let p = P.count 3 a in
  let m = both p [ ea; eb; ea; ea; ea ] in
  check (list bool) "3rd a completes, then restart" [ false; false; false; true; false ] m

let test_conj () =
  let p = P.conj [ a; b ] in
  let m = both p [ eb; ea ] in
  check (list bool) "order-free conjunction" [ false; true ] m;
  ignore (both p [ ea; ea; eb; ea; eb ] : bool list)

let test_disj () =
  let p = P.disj [ a; b ] in
  let m = both p [ ec; eb; ea ] in
  check (list bool) "either branch completes" [ false; true; true ] m

let test_within_expiry () =
  (* Window of 2 ticks, armed by the first a. Two ticks after arming the
     region resets, so a stale a does not pair with a late b. *)
  let p = P.within (Eventsim.Sim_time.us 2) (P.seq [ a; b ]) in
  let m = both p [ ea; T; T; eb; ea; eb ] in
  check (list bool) "expired window drops the partial match"
    [ false; false; false; false; false; true ] m;
  let m = both p [ ea; T; eb ] in
  check (list bool) "b inside the window completes" [ false; false; true ] m

let test_within_rearm () =
  let p = P.within (Eventsim.Sim_time.us 1) (P.seq [ a; b ]) in
  (* w=1: the tick after arming already expires the window. *)
  ignore (both p [ ea; T; eb; ea; eb; T; T; ea; T; ea; eb ] : bool list)

let test_count_within () =
  (* Microburst shape: n overflows inside a window. *)
  let p = P.within (Eventsim.Sim_time.us 3) (P.count 3 b) in
  ignore (both p [ eb; T; eb; T; eb ] : bool list);
  ignore (both p [ eb; T; T; T; eb; eb; T; eb ] : bool list)

let test_nested_windows () =
  (* Sibling armed windows: only one expires per tick, the outer
     (pre-order first) going first. *)
  let p =
    P.conj
      [
        P.within (Eventsim.Sim_time.us 2) (P.seq [ a; b ]);
        P.within (Eventsim.Sim_time.us 2) (P.seq [ c; b ]);
      ]
  in
  ignore (both p [ ea; ec; T; T; T; eb; ec; eb; ea; eb ] : bool list);
  let p = P.within (Eventsim.Sim_time.us 4) (P.seq [ a; P.within (Eventsim.Sim_time.us 2) (P.seq [ b; c ]) ]) in
  ignore (both p [ ea; eb; T; T; T; eb; ec; ea; eb; ec ] : bool list)

let test_seq_of_disj_count () =
  let p = P.seq [ P.disj [ a; c ]; P.count 2 b ] in
  ignore (both p [ ec; eb; ea; eb; eb; eb ] : bool list)

let test_accept_restarts () =
  let p = P.seq [ a; b ] in
  let m = both p [ ea; eb; ea; eb; ea; eb ] in
  check (list bool) "instance restarts after accept"
    [ false; true; false; true; false; true ] m

let test_compile_shape () =
  let c = C.compile a in
  check int "atom: init + accept" 2 c.C.states;
  check int "atom: no registers" 0 c.C.nregs;
  check int "accept label" 1 c.C.accept;
  let c = C.compile (P.within (Eventsim.Sim_time.us 2) (P.count 3 b)) in
  check int "count+within: two registers" 2 c.C.nregs;
  check bool "state_bits covers labels" true (1 lsl c.C.state_bits > c.C.accept)

let test_validation () =
  let rejects name f = check_raises name (Invalid_argument "") (fun () -> try f () with Invalid_argument _ -> raise (Invalid_argument "")) in
  rejects "empty seq" (fun () -> ignore (P.seq [] : P.t));
  rejects "empty conj" (fun () -> ignore (P.conj [] : P.t));
  rejects "empty disj" (fun () -> ignore (P.disj [] : P.t));
  rejects "count 0" (fun () -> ignore (P.count 0 a : P.t));
  rejects "within 0" (fun () -> ignore (P.within 0 a : P.t));
  rejects "empty atom interval" (fun () ->
      ignore (P.atom ~label:"x" ~lo:5 ~hi:4 a_cls : P.t))

(* --- QCheck: random patterns, random streams ------------------------- *)

let classes = [| a_cls; b_cls; c_cls |]

let gen_atom =
  QCheck.Gen.(
    let* ci = int_bound 2 in
    let* lo = int_bound 6 in
    let* len = int_bound 4 in
    return (P.atom ~label:(Printf.sprintf "c%d[%d-%d]" ci lo (lo + len)) ~lo ~hi:(lo + len) classes.(ci)))

let gen_pattern =
  QCheck.Gen.(
    fix (fun self depth ->
        if depth = 0 then gen_atom
        else
          let sub = self (depth - 1) in
          frequency
            [
              (2, gen_atom);
              (2, list_size (int_range 2 3) sub >|= P.seq);
              (1, list_size (int_range 2 3) sub >|= P.conj);
              (1, list_size (int_range 2 3) sub >|= P.disj);
              (1, map2 (fun n p -> P.count (1 + n) p) (int_bound 2) sub);
              (2, map2 (fun w p -> P.within (Eventsim.Sim_time.us (1 + w)) p) (int_bound 3) sub);
            ]))

let gen_item =
  QCheck.Gen.(
    frequency
      [
        (1, return T);
        ( 3,
          let* ci = int_bound 2 in
          let* attr = int_bound 11 in
          return (E { P.cls = classes.(ci); attr }) );
      ])

let gen_case =
  QCheck.Gen.(
    let* pat = gen_pattern 3 in
    let* stream = list_size (int_range 1 50) gen_item in
    return (pat, stream))

let qcheck_compiled_matches_interp =
  let arb =
    QCheck.make
      ~print:(fun (pat, stream) ->
        Printf.sprintf "%s on [%s]" (P.to_string pat) (stream_to_string stream))
      gen_case
  in
  QCheck.Test.make ~count:300 ~name:"compiled automaton == reference interpreter" arb
    (fun (pat, stream) ->
      match C.compile pat with
      | exception Invalid_argument _ ->
          QCheck.assume_fail () (* state-space cap; vacuous *)
      | c ->
          let e = C.efsm ~name:"cep-qc" ~entries:8 c () in
          let it = I.create pat in
          List.iteri
            (fun i item ->
              let input = match item with E v -> P.encode v | T -> P.tick_input in
              let o = Efsm.step e ~now:i ~key:1 ~input in
              let compiled = C.is_match c o in
              let interp =
                match item with
                | E v -> I.feed it v
                | T ->
                    I.tick it;
                    false
              in
              if compiled <> interp then
                QCheck.Test.fail_reportf "verdicts diverge at event %d (%s): compiled=%b interp=%b"
                  i (item_to_string item) compiled interp)
            stream;
          true)

let suite =
  [
    test_case "atom matches its class and interval" `Quick test_atom;
    test_case "seq with skip-till-next-match" `Quick test_seq;
    test_case "seq with attribute guard" `Quick test_seq_attr_guard;
    test_case "count n completes on the n-th" `Quick test_count;
    test_case "conj is order-free" `Quick test_conj;
    test_case "disj completes on either branch" `Quick test_disj;
    test_case "within expiry drops partial matches" `Quick test_within_expiry;
    test_case "within re-arms after expiry" `Quick test_within_rearm;
    test_case "count under within (microburst shape)" `Quick test_count_within;
    test_case "nested and sibling windows" `Quick test_nested_windows;
    test_case "seq of disj and count" `Quick test_seq_of_disj_count;
    test_case "accept restarts the instance" `Quick test_accept_restarts;
    test_case "compiled shape: states, regs, accept" `Quick test_compile_shape;
    test_case "pattern validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest qcheck_compiled_matches_interp;
  ]
