(* Unit and regression tests for the per-flow EFSM extern: transition
   semantics (first match, parallel updates, saturation), table
   management (LRU capacity eviction, timeout sweeps and the
   eviction-vs-in-flight race), the OPP contention model, and the
   metrics/exporter surface. *)

module Efsm = Pisa.Efsm
module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler

let tr ?(guard = Efsm.Always) ?(actions = []) from_state next_state =
  { Efsm.from_state; guard; next_state; actions }

let act reg update = { Efsm.reg; update }

(* --- transition semantics --- *)

let test_first_match_wins () =
  (* Two transitions from state 0 both match; the first in list order
     must fire. *)
  let e =
    Efsm.create ~name:"t" ~entries:4 ~nregs:1
      ~transitions:
        [
          tr ~guard:(Efsm.Cmp (Efsm.Ge, Efsm.Input, Efsm.Const 10)) 0 2;
          tr 0 1 ~actions:[ act 0 (Efsm.Set (Efsm.Const 7)) ];
        ]
      ()
  in
  let o = Efsm.step e ~now:0 ~key:1 ~input:50 in
  Alcotest.(check bool) "fired" true o.Efsm.fired;
  Alcotest.(check bool) "inserted" true o.Efsm.inserted;
  Alcotest.(check int) "first match took state 2" 2 o.Efsm.state;
  Alcotest.(check (option (array int)) "second transition's action did not run")
    (Some [| 0 |]) (Efsm.regs_of e ~key:1);
  let o2 = Efsm.step e ~now:0 ~key:2 ~input:3 in
  Alcotest.(check int) "guard miss falls through" 1 o2.Efsm.state

let test_parallel_update_swaps () =
  (* r0 = r1; r1 = r0 must swap: RHSs read pre-transition values. *)
  let e =
    Efsm.create ~name:"swap" ~entries:2 ~nregs:2
      ~transitions:
        [
          tr ~guard:(Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const 0)) 0 0
            ~actions:[ act 0 (Efsm.Set (Efsm.Const 3)); act 1 (Efsm.Set (Efsm.Const 9)) ];
          tr 0 0 ~actions:[ act 0 (Efsm.Set (Efsm.Reg 1)); act 1 (Efsm.Set (Efsm.Reg 0)) ];
        ]
      ()
  in
  ignore (Efsm.step e ~now:0 ~key:5 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:0 ~key:5 ~input:1 : Efsm.outcome);
  Alcotest.(check (option (array int)) "swapped") (Some [| 9; 3 |]) (Efsm.regs_of e ~key:5)

let test_guard_never_fires () =
  (* A table whose only guard can never hold: every step is a guard
     miss, state never moves, no actions run — but the flow is still
     tracked (inserted, occupancy 1). *)
  let e =
    Efsm.create ~name:"never" ~entries:4 ~nregs:1
      ~transitions:[ tr ~guard:(Efsm.Cmp (Efsm.Lt, Efsm.Input, Efsm.Const 0)) 0 1 ]
      ()
  in
  for i = 1 to 5 do
    let o = Efsm.step e ~now:i ~key:9 ~input:i in
    Alcotest.(check bool) "never fires" false o.Efsm.fired;
    Alcotest.(check int) "state pinned at 0" 0 o.Efsm.state
  done;
  Alcotest.(check int) "all misses" 5 (Efsm.guard_misses e);
  Alcotest.(check int) "no firings" 0 (Efsm.fired e);
  Alcotest.(check int) "flow still tracked" 1 (Efsm.occupancy e)

let test_self_loop_saturates () =
  (* A saturating self-loop on a 32-bit register must clamp at
     2^32-1 and stay there no matter how many more steps arrive;
     Sat_sub floors at 0 symmetrically. *)
  let e =
    Efsm.create ~name:"sat" ~entries:2 ~nregs:2
      ~transitions:
        [
          tr ~guard:(Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const 1)) 0 0
            ~actions:[ act 0 (Efsm.Sat_add (Efsm.Reg 0, Efsm.Const 0x4000_0000)) ];
          tr 0 0 ~actions:[ act 1 (Efsm.Sat_sub (Efsm.Reg 1, Efsm.Const 10)) ];
        ]
      ()
  in
  for i = 1 to 40 do
    ignore (Efsm.step e ~now:i ~key:1 ~input:1 : Efsm.outcome)
  done;
  ignore (Efsm.step e ~now:41 ~key:1 ~input:0 : Efsm.outcome);
  Alcotest.(check (option (array int)) "clamped at 2^32-1, floored at 0")
    (Some [| 0xffff_ffff; 0 |])
    (Efsm.regs_of e ~key:1)

let test_wrapping_add () =
  let e =
    Efsm.create ~name:"wrap" ~entries:2 ~nregs:1
      ~transitions:[ tr 0 0 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Const 0xc000_0000)) ] ]
      ()
  in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:1 ~key:1 ~input:0 : Efsm.outcome);
  Alcotest.(check (option (array int)) "2 * 0xc0000000 mod 2^32") (Some [| 0x8000_0000 |])
    (Efsm.regs_of e ~key:1)

(* --- table management --- *)

let test_capacity_overflow_lru () =
  (* entries=2: A then B fill the table; touching A makes B the LRU,
     so inserting C evicts B. A's registers survive untouched. *)
  let e =
    Efsm.create ~name:"lru" ~entries:2 ~nregs:1
      ~transitions:[ tr 0 0 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Const 1)) ] ]
      ()
  in
  ignore (Efsm.step e ~now:10 ~key:100 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:20 ~key:200 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:30 ~key:100 ~input:0 : Efsm.outcome);
  let o = Efsm.step e ~now:40 ~key:300 ~input:0 in
  Alcotest.(check bool) "C inserted" true o.Efsm.inserted;
  Alcotest.(check int) "one capacity eviction" 1 (Efsm.evictions_capacity e);
  Alcotest.(check (option int) "B gone" None (Efsm.state_of e ~key:200));
  Alcotest.(check (option (array int)) "A survived with its count")
    (Some [| 2 |]) (Efsm.regs_of e ~key:100);
  Alcotest.(check int) "full" 2 (Efsm.occupancy e);
  (* The evicted flow's slot starts fresh if it returns. *)
  ignore (Efsm.step e ~now:50 ~key:200 ~input:0 : Efsm.outcome);
  Alcotest.(check (option (array int)) "B reinserted fresh")
    (Some [| 1 |]) (Efsm.regs_of e ~key:200)

let test_timeout_eviction_race () =
  (* The regression this pins: a sweep at time T must evict flows idle
     since T - timeout, but a flow stepped AT T (the in-flight
     transition racing the eviction timer) counts as refreshed and
     survives. *)
  let timeout = Sim_time.us 100 in
  let e =
    Efsm.create ~name:"race" ~entries:8 ~nregs:1 ~timeout
      ~transitions:[ tr 0 0 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Const 1)) ] ]
      ()
  in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:(Sim_time.us 40) ~key:2 ~input:0 : Efsm.outcome);
  (* Key 3 is stepped at the sweep's own timestamp. *)
  ignore (Efsm.step e ~now:(Sim_time.us 100) ~key:3 ~input:0 : Efsm.outcome);
  let evicted = Efsm.sweep e ~now:(Sim_time.us 100) in
  Alcotest.(check int) "only the idle-since-0 flow evicted" 1 evicted;
  Alcotest.(check (option int) "key 1 gone" None (Efsm.state_of e ~key:1));
  Alcotest.(check bool) "key 2 (idle 60us < timeout) survives" true
    (Efsm.state_of e ~key:2 <> None);
  Alcotest.(check bool) "key 3 (stepped at sweep time) survives" true
    (Efsm.state_of e ~key:3 <> None);
  Alcotest.(check int) "counted" 1 (Efsm.evictions_timeout e);
  (* A later sweep with nothing idle evicts nothing. *)
  Alcotest.(check int) "idle sweep" 0 (Efsm.sweep e ~now:(Sim_time.us 120))

let test_sweep_without_timeout_is_noop () =
  let e = Efsm.create ~name:"nt" ~entries:2 ~nregs:1 ~transitions:[ tr 0 0 ] () in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:0 : Efsm.outcome);
  Alcotest.(check int) "no timeout, no eviction" 0 (Efsm.sweep e ~now:(Sim_time.ms 1000))

let test_periodic_sweep () =
  let sched = Scheduler.create () in
  let e =
    Efsm.create ~name:"sw" ~entries:4 ~nregs:1 ~timeout:(Sim_time.us 50)
      ~transitions:[ tr 0 0 ]
      ()
  in
  ignore
    (Scheduler.every ~cls:Scheduler.Efsm_sweep sched ~period:(Sim_time.us 50) (fun () ->
         ignore (Efsm.sweep e ~now:(Scheduler.now sched) : int))
      : Scheduler.handle);
  Scheduler.post sched ~at:(Sim_time.us 1) (fun () ->
      ignore (Efsm.step e ~now:(Sim_time.us 1) ~key:7 ~input:0 : Efsm.outcome));
  Scheduler.run ~until:(Sim_time.us 200) sched;
  Alcotest.(check int) "idle flow swept out" 0 (Efsm.occupancy e);
  Alcotest.(check bool) "sweeps ran" true (Efsm.sweeps e >= 2)

(* --- broadcast (step_all) --- *)

let test_step_all_broadcast () =
  (* A window reset: every tracked flow sees the broadcast input and
     resets r0; states in the throttled state (1) release to 0. *)
  let e =
    Efsm.create ~name:"bc" ~entries:8 ~nregs:1
      ~transitions:
        [
          tr ~guard:(Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const 99)) 0 0
            ~actions:[ act 0 (Efsm.Set (Efsm.Const 0)) ];
          tr ~guard:(Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const 99)) 1 0
            ~actions:[ act 0 (Efsm.Set (Efsm.Const 0)) ];
          tr 0 1 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Input)) ];
        ]
      ()
  in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:5 : Efsm.outcome);
  ignore (Efsm.step e ~now:0 ~key:2 ~input:7 : Efsm.outcome);
  Alcotest.(check (option int) "throttled" (Some 1) (Efsm.state_of e ~key:1));
  Efsm.step_all e ~input:99;
  Alcotest.(check (option int) "released" (Some 0) (Efsm.state_of e ~key:1));
  Alcotest.(check (option (array int)) "reset") (Some [| 0 |]) (Efsm.regs_of e ~key:2);
  Alcotest.(check int) "both flows still tracked" 2 (Efsm.occupancy e)

(* --- contention model --- *)

let test_stall_accounting () =
  let cycle = ref 0 in
  let alloc = Pisa.Register_alloc.create ~clock:(fun () -> !cycle) () in
  let e =
    Efsm.create ~alloc ~name:"st" ~entries:8 ~nregs:1
      ~transitions:[ tr 0 0 ]
      ()
  in
  (* Fresh insert never stalls. *)
  let o = Efsm.step e ~now:0 ~key:1 ~input:0 in
  Alcotest.(check bool) "insert does not stall" false o.Efsm.stalled;
  (* Same flow within the window: stall. *)
  cycle := 3;
  let o = Efsm.step e ~now:1 ~key:1 ~input:0 in
  Alcotest.(check bool) "hit inside rmw window stalls" true o.Efsm.stalled;
  (* A different flow in the same window does not contend. *)
  let o = Efsm.step e ~now:1 ~key:2 ~input:0 in
  Alcotest.(check bool) "other flow unaffected" false o.Efsm.stalled;
  (* Same flow after the window (Pipeline.default_depth cycles) has
     passed: clean. *)
  cycle := 3 + Pisa.Pipeline.default_depth + 1;
  let o = Efsm.step e ~now:2 ~key:1 ~input:0 in
  Alcotest.(check bool) "hit outside window is clean" false o.Efsm.stalled;
  Alcotest.(check int) "one stall total" 1 (Efsm.stalls e)

let test_single_hit_never_stalls () =
  (* Every packet its own flow — the uniform single-hit workload of
     E24. The contention model must stay exactly silent even with all
     arrivals in the same cycle. *)
  let e =
    Efsm.create ~alloc:(Pisa.Register_alloc.create ~clock:(fun () -> 0) ())
      ~name:"u" ~entries:256 ~nregs:1
      ~transitions:[ tr 0 0 ]
      ()
  in
  for k = 1 to 200 do
    ignore (Efsm.step e ~now:k ~key:k ~input:0 : Efsm.outcome)
  done;
  Alcotest.(check int) "zero stalls" 0 (Efsm.stalls e)

(* --- validation, metrics, digest --- *)

let test_create_validates () =
  let rejects what f =
    match f () with
    | (_ : Efsm.t) -> Alcotest.fail ("expected Invalid_argument: " ^ what)
    | exception Invalid_argument _ -> ()
  in
  rejects "zero entries" (fun () ->
      Efsm.create ~name:"x" ~entries:0 ~nregs:1 ~transitions:[] ());
  rejects "state beyond state_bits" (fun () ->
      Efsm.create ~name:"x" ~entries:4 ~nregs:1 ~transitions:[ tr 0 256 ] ());
  rejects "register out of range" (fun () ->
      Efsm.create ~name:"x" ~entries:4 ~nregs:1
        ~transitions:[ tr 0 0 ~actions:[ act 3 (Efsm.Set (Efsm.Const 0)) ] ]
        ());
  rejects "zero timeout" (fun () ->
      Efsm.create ~name:"x" ~entries:4 ~nregs:1 ~timeout:0 ~transitions:[ tr 0 0 ] ());
  rejects "negative timeout" (fun () ->
      Efsm.create ~name:"x" ~entries:4 ~nregs:1 ~timeout:(-Sim_time.us 5)
        ~transitions:[ tr 0 0 ] ())

let test_sweep_releases_slots () =
  (* Regression: evicted slots must rejoin the free list. Before the
     fix, a sweep left the table logically empty but the free list
     drained, so the next insert burned a capacity eviction on a live
     flow — and once every slot had been swept, eviction scanned only
     invalid slots and crashed. *)
  let timeout = Sim_time.us 10 in
  let e =
    Efsm.create ~name:"free" ~entries:4 ~nregs:1 ~timeout
      ~transitions:[ tr 0 0 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Const 1)) ] ]
      ()
  in
  for k = 1 to 4 do
    ignore (Efsm.step e ~now:0 ~key:k ~input:0 : Efsm.outcome)
  done;
  Alcotest.(check int) "table full" 4 (Efsm.occupancy e);
  Alcotest.(check int) "all idle flows swept" 4 (Efsm.sweep e ~now:(Sim_time.us 20));
  Alcotest.(check int) "empty after sweep" 0 (Efsm.occupancy e);
  (* Refill to capacity: swept slots are free again, so no LRU
     eviction may fire (pre-fix this evicted live flows, or crashed). *)
  for k = 11 to 14 do
    let o = Efsm.step e ~now:(Sim_time.us 21) ~key:k ~input:0 in
    Alcotest.(check bool) "reinserted into a freed slot" true o.Efsm.inserted
  done;
  Alcotest.(check int) "full again" 4 (Efsm.occupancy e);
  Alcotest.(check int) "no capacity evictions" 0 (Efsm.evictions_capacity e);
  Alcotest.(check int) "four timeout evictions" 4 (Efsm.evictions_timeout e);
  (* All four refilled flows are live with fresh registers. *)
  for k = 11 to 14 do
    Alcotest.(check (option (array int)))
      (Printf.sprintf "key %d fresh" k)
      (Some [| 1 |])
      (Efsm.regs_of e ~key:k)
  done

let test_partial_sweep_then_overflow () =
  (* A partial sweep frees some slots; subsequent inserts must consume
     the freed slots before evicting anyone. *)
  let timeout = Sim_time.us 10 in
  let e =
    Efsm.create ~name:"partial" ~entries:4 ~nregs:1 ~timeout ~transitions:[ tr 0 0 ] ()
  in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:0 ~key:2 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:(Sim_time.us 15) ~key:3 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:(Sim_time.us 15) ~key:4 ~input:0 : Efsm.outcome);
  Alcotest.(check int) "two idle flows swept" 2 (Efsm.sweep e ~now:(Sim_time.us 20));
  ignore (Efsm.step e ~now:(Sim_time.us 21) ~key:5 ~input:0 : Efsm.outcome);
  ignore (Efsm.step e ~now:(Sim_time.us 22) ~key:6 ~input:0 : Efsm.outcome);
  Alcotest.(check int) "freed slots reused, no eviction" 0 (Efsm.evictions_capacity e);
  Alcotest.(check bool) "survivors intact" true
    (Efsm.state_of e ~key:3 <> None && Efsm.state_of e ~key:4 <> None);
  (* One more insert genuinely overflows now. *)
  ignore (Efsm.step e ~now:(Sim_time.us 23) ~key:7 ~input:0 : Efsm.outcome);
  Alcotest.(check int) "then LRU kicks in" 1 (Efsm.evictions_capacity e)

let test_alloc_exporter_and_stats () =
  let alloc = Pisa.Register_alloc.create () in
  let e =
    Efsm.create ~alloc ~name:"exp" ~entries:4 ~nregs:2
      ~transitions:[ tr 0 0 ~actions:[ act 0 (Efsm.Add (Efsm.Reg 0, Efsm.Const 1)) ] ]
      ()
  in
  ignore (Efsm.step e ~now:0 ~key:1 ~input:0 : Efsm.outcome);
  match Pisa.Register_alloc.stats_exporters alloc with
  | [ (name, stats) ] ->
      Alcotest.(check string) "registered under its name" "exp" name;
      let s = stats () in
      Alcotest.(check (option int) "steps series" (Some 1) (List.assoc_opt "pisa.efsm.steps" s));
      Alcotest.(check bool) "state digest series" true
        (List.mem_assoc "pisa.efsm.state_hash" s)
  | l -> Alcotest.fail (Printf.sprintf "expected one exporter, got %d" (List.length l))

let test_state_hash_tracks_evolution () =
  let mk () =
    Efsm.create ~name:"h" ~entries:8 ~nregs:1
      ~transitions:[ tr 0 1 ~actions:[ act 0 (Efsm.Set (Efsm.Input)) ] ]
      ()
  in
  let a = mk () and b = mk () in
  let h0 = Efsm.state_hash a in
  ignore (Efsm.step a ~now:0 ~key:42 ~input:7 : Efsm.outcome);
  ignore (Efsm.step b ~now:0 ~key:42 ~input:7 : Efsm.outcome);
  Alcotest.(check bool) "hash moved" true (Efsm.state_hash a <> h0);
  Alcotest.(check int) "identical evolutions agree" (Efsm.state_hash a) (Efsm.state_hash b);
  ignore (Efsm.step b ~now:1 ~key:43 ~input:9 : Efsm.outcome);
  Alcotest.(check bool) "divergent evolutions differ" true
    (Efsm.state_hash a <> Efsm.state_hash b)

let suite =
  [
    Alcotest.test_case "first match wins" `Quick test_first_match_wins;
    Alcotest.test_case "parallel update swaps" `Quick test_parallel_update_swaps;
    Alcotest.test_case "guard never fires" `Quick test_guard_never_fires;
    Alcotest.test_case "self-loop saturates" `Quick test_self_loop_saturates;
    Alcotest.test_case "wrapping add" `Quick test_wrapping_add;
    Alcotest.test_case "capacity overflow LRU" `Quick test_capacity_overflow_lru;
    Alcotest.test_case "timeout eviction vs in-flight race" `Quick test_timeout_eviction_race;
    Alcotest.test_case "sweep without timeout" `Quick test_sweep_without_timeout_is_noop;
    Alcotest.test_case "attached sweeper" `Quick test_periodic_sweep;
    Alcotest.test_case "step_all broadcast" `Quick test_step_all_broadcast;
    Alcotest.test_case "stall accounting" `Quick test_stall_accounting;
    Alcotest.test_case "single-hit never stalls" `Quick test_single_hit_never_stalls;
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "sweep releases slots to the free list" `Quick test_sweep_releases_slots;
    Alcotest.test_case "partial sweep then overflow" `Quick test_partial_sweep_then_overflow;
    Alcotest.test_case "alloc exporter + stats" `Quick test_alloc_exporter_and_stats;
    Alcotest.test_case "state_hash tracks evolution" `Quick test_state_hash_tracks_evolution;
  ]
