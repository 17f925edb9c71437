(* Tests for the bounded-staleness consistency checker, including an
   end-to-end verification of a Shared_register execution against the
   model — the checkable form of §4's "temporarily imprecise but
   well-defined behavior". *)

module C = Consistency
module Scheduler = Eventsim.Scheduler
module Pipeline = Pisa.Pipeline
module Shared_register = Devents.Shared_register

let up ~issue ~delta = C.Update { issue; delta }
let rd ~time ~value = C.Read { time; value }

let test_linearizable_history () =
  (* bound 0: reads must reflect exactly the updates issued so far. *)
  let h = [ up ~issue:1 ~delta:10; rd ~time:5 ~value:10; up ~issue:6 ~delta:5; rd ~time:7 ~value:15 ] in
  Alcotest.(check bool) "valid" true (C.check ~bound:0 h = Ok ())

let test_stale_read_within_bound () =
  let h = [ up ~issue:10 ~delta:10; rd ~time:12 ~value:0 ] in
  Alcotest.(check bool) "rejected at bound 0" true (C.check ~bound:0 h <> Ok ());
  Alcotest.(check bool) "accepted at bound 5" true (C.check ~bound:5 h = Ok ())

let test_too_stale_read () =
  (* The update is 100 cycles old; a bound of 10 requires it applied. *)
  let h = [ up ~issue:0 ~delta:10; rd ~time:100 ~value:0 ] in
  match C.check ~bound:10 h with
  | Ok () -> Alcotest.fail "should violate"
  | Error v ->
      Alcotest.(check int) "read flagged" 100 v.C.read_time;
      Alcotest.(check (list int)) "only 10 allowed" [ 10 ] v.C.valid_values

let test_value_from_thin_air () =
  let h = [ up ~issue:1 ~delta:10; rd ~time:50 ~value:7 ] in
  Alcotest.(check bool) "7 is not a prefix sum" false (C.eventually_consistent h)

let test_future_update_not_visible () =
  let h = [ rd ~time:5 ~value:10; up ~issue:20 ~delta:10 ] in
  Alcotest.(check bool) "cannot see the future" true (C.check ~bound:1000 h <> Ok ())

let test_interval_model_accepts_out_of_order_sides () =
  (* enq (+100) at cycle 5 and deq (-40) at cycle 3: the two queues may
     apply the later-issued +100 first. A read seeing +100 alone is not
     a prefix (prefix sums: 0, -40, 60) but is legal under the interval
     model. *)
  let h = [ up ~issue:3 ~delta:(-40); up ~issue:5 ~delta:100; rd ~time:6 ~value:100 ] in
  Alcotest.(check bool) "prefix model rejects" true (C.check ~bound:10 h <> Ok ());
  Alcotest.(check bool) "interval model accepts" true (C.check_interval ~bound:10 h = Ok ())

let test_interval_model_still_bounds () =
  let h = [ up ~issue:0 ~delta:50; rd ~time:100 ~value:0 ] in
  Alcotest.(check bool) "mandatory updates enforced" true
    (C.check_interval ~bound:10 h <> Ok ())

let qcheck_lazy_application_is_consistent =
  (* Generate updates; simulate a lazy applier that randomly defers
     application up to [bound] cycles; the resulting read history must
     always check out under the prefix model. *)
  QCheck.Test.make ~name:"lazily applied counter satisfies bounded staleness" ~count:200
    QCheck.(pair (int_bound 1_000_000) (list (pair (int_bound 50) (int_range (-20) 20))))
    (fun (seed, raw) ->
      let rng = Stats.Rng.create ~seed in
      let bound = 10 in
      let rec build time applied_through pending acc = function
        | [] -> List.rev acc
        | (gap, delta) :: rest ->
            let time = time + 1 + gap in
            (* Apply everything older than [bound]; maybe more. *)
            let must = List.filter (fun (i, _) -> i < time - bound) pending in
            let may = List.filter (fun (i, _) -> i >= time - bound) pending in
            let extra = Stats.Rng.int rng (List.length may + 1) in
            let applied_now, still_pending =
              (must @ List.filteri (fun i _ -> i < extra) may,
               List.filteri (fun i _ -> i >= extra) may)
            in
            let applied_through = applied_through + List.fold_left (fun a (_, d) -> a + d) 0 applied_now in
            let acc = C.Read { time; value = applied_through } :: acc in
            let acc = C.Update { issue = time; delta } :: acc in
            build time applied_through (still_pending @ [ (time, delta) ]) acc rest
      in
      let history = build 0 0 [] [] raw in
      C.check ~bound history = Ok ())

let test_shared_register_execution_checks_out () =
  (* Drive an Aggregated register with a real pipeline and verify the
     recorded history against the interval model with the measured
     staleness bound. *)
  let sched = Scheduler.create () in
  let pipeline = Pipeline.create ~sched () in
  let alloc = Pisa.Register_alloc.create () in
  let reg =
    Shared_register.create ~alloc ~pipeline ~mode:Shared_register.Aggregated ~name:"c"
      ~entries:1 ~width:32 ()
  in
  let rec_ = C.recorder () in
  let rng = Stats.Rng.create ~seed:77 in
  for k = 0 to 299 do
    ignore
      (Scheduler.schedule sched
         ~at:(k * Pipeline.clock_period pipeline)
         (fun () ->
           let cycle = Pipeline.current_cycle pipeline in
           if Stats.Rng.bool rng then begin
             let delta = Stats.Rng.int rng 100 in
             let side =
               if Stats.Rng.bool rng then Shared_register.Enq_side else Shared_register.Deq_side
             in
             C.record_update rec_ ~issue:cycle ~delta;
             Shared_register.event_add reg side 0 delta
           end
           else C.record_read rec_ ~time:cycle ~value:(Shared_register.read reg 0)))
  done;
  Scheduler.run sched;
  let bound =
    let m = Shared_register.max_staleness_cycles reg in
    if m = neg_infinity then 1 else int_of_float m + 2
  in
  (match C.check_interval ~bound (C.history rec_) with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "violation at cycle %d: saw %d, allowed %s" v.C.read_time v.C.observed
        (String.concat "," (List.map string_of_int v.C.valid_values)));
  Alcotest.(check bool) "history non-trivial" true (C.length rec_ > 100)

let suite =
  [
    Alcotest.test_case "linearizable history" `Quick test_linearizable_history;
    Alcotest.test_case "stale read within bound" `Quick test_stale_read_within_bound;
    Alcotest.test_case "too-stale read flagged" `Quick test_too_stale_read;
    Alcotest.test_case "thin-air value flagged" `Quick test_value_from_thin_air;
    Alcotest.test_case "future not visible" `Quick test_future_update_not_visible;
    Alcotest.test_case "interval model, out-of-order sides" `Quick
      test_interval_model_accepts_out_of_order_sides;
    Alcotest.test_case "interval model bounds" `Quick test_interval_model_still_bounds;
    QCheck_alcotest.to_alcotest qcheck_lazy_application_is_consistent;
    Alcotest.test_case "shared register execution verified" `Quick
      test_shared_register_execution_checks_out;
  ]
