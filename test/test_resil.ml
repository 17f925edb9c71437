(* Tests for the resilience layer: supervised handler execution
   (policies, quarantine/backoff, watchdog, fault-injection hooks),
   graceful event shedding, the runtime invariant checker, and their
   integration into the event switch. *)

module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Packet = Netcore.Packet
module Event = Devents.Event
module Arch = Evcore.Arch
module Program = Evcore.Program
module Event_switch = Evcore.Event_switch
module Policy = Resil.Policy
module Supervisor = Resil.Supervisor
module Shedder = Resil.Shedder
module Invariants = Resil.Invariants

let config ?(policy = Policy.Quarantine) ?(base_backoff = Sim_time.us 50)
    ?(max_backoff = Sim_time.ms 1) () =
  { Supervisor.policy; base_backoff; max_backoff }

(* Every backoff adds a jitter of 0-20 us drawn from the key's RNG. *)
let jitter = Sim_time.us 20

(* The gaps between successive instants of [times], from 0. *)
let gaps times = List.mapi (fun i t -> t - if i = 0 then 0 else List.nth times (i - 1)) times

let check_jittered name nominals times =
  List.iter2
    (fun nominal gap ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: gap %d within [%d, %d + jitter]" name gap nominal nominal)
        true
        (gap >= nominal && gap <= nominal + jitter))
    nominals (gaps times)

let crash () = failwith "boom"

let mk_packet () =
  Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.host ~subnet:1 1)
    ~dst:(Netcore.Ipv4_addr.host ~subnet:1 2)
    ~src_port:1000 ~dst_port:2000 ~payload_len:86 ()

(* --- policy --- *)

let test_policy_round_trip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Policy.to_string p ^ " round-trips")
        true
        (Policy.of_string (Policy.to_string p) = Some p))
    (List.filter_map Policy.of_string Policy.names);
  Alcotest.(check bool) "off aliases fail-fast" true (Policy.of_string "off" = Some Policy.Fail_fast);
  Alcotest.(check bool) "drop aliases drop-event" true
    (Policy.of_string "drop" = Some Policy.Drop_event);
  Alcotest.(check bool) "unknown rejected" true (Policy.of_string "nope" = None)

(* --- supervisor: policies --- *)

let test_fail_fast_raises () =
  let sched = Scheduler.create () in
  let sup = Supervisor.create ~sched ~config:(config ~policy:Policy.Fail_fast ()) ~seed:1 () in
  let key = Supervisor.register sup ~name:"h" () in
  (match Supervisor.protect sup key crash with
  | _ -> Alcotest.fail "expected Failed"
  | exception Supervisor.Failed (name, Failure _) ->
      Alcotest.(check string) "names the handler" "h" name);
  Alcotest.(check int) "crash counted" 1 (Supervisor.crashes sup);
  Alcotest.(check bool) "fail-fast does not quarantine" true (Supervisor.active key)

let test_drop_event_absorbs () =
  let sched = Scheduler.create () in
  let sup = Supervisor.create ~sched ~config:(config ~policy:Policy.Drop_event ()) ~seed:1 () in
  let key = Supervisor.register sup ~name:"h" () in
  Alcotest.(check bool) "failed invocation reports false" false (Supervisor.protect sup key crash);
  Alcotest.(check bool) "clean invocation reports true" true
    (Supervisor.protect sup key (fun () -> ()));
  Alcotest.(check bool) "handler stays active" true (Supervisor.active key);
  Alcotest.(check int) "one event dropped" 1 (Supervisor.dropped sup);
  Alcotest.(check int) "no trips" 0 (Supervisor.trips sup)

let test_quarantine_lifecycle () =
  let sched = Scheduler.create () in
  let sup =
    Supervisor.create ~sched ~config:(config ~base_backoff:(Sim_time.us 20) ()) ~seed:1 ()
  in
  let disabled = ref [] and enabled = ref [] in
  let key =
    Supervisor.register sup ~name:"h"
      ~on_disable:(fun () -> disabled := Scheduler.now sched :: !disabled)
      ~on_enable:(fun () -> enabled := Scheduler.now sched :: !enabled)
      ()
  in
  ignore (Supervisor.protect sup key crash);
  Alcotest.(check bool) "inactive immediately after the trip" false (Supervisor.active key);
  Alcotest.(check int) "quarantined count" 1 (Supervisor.quarantined sup);
  (* Guarded calls while quarantined are dropped without running. *)
  let ran = ref false in
  Alcotest.(check bool) "call while quarantined refused" false
    (Supervisor.protect sup key (fun () -> ran := true));
  Alcotest.(check bool) "body did not run" false !ran;
  Scheduler.run sched;
  Alcotest.(check bool) "re-enabled after backoff" true (Supervisor.active key);
  Alcotest.(check (list int)) "on_disable at trip time" [ 0 ] !disabled;
  check_jittered "on_enable" [ Sim_time.us 20 ] !enabled;
  Alcotest.(check (list int)) "on_enable at backoff expiry, seed 1" [ 25_128_936 ] !enabled;
  Alcotest.(check int) "one trip" 1 (Supervisor.trips sup);
  Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
  Alcotest.(check int) "dropped: the crash plus the refused call" 2 (Supervisor.dropped sup)

let test_backoff_growth_and_cap () =
  let sched = Scheduler.create () in
  let cfg = config ~base_backoff:(Sim_time.us 10) ~max_backoff:(Sim_time.us 40) () in
  let sup = Supervisor.create ~sched ~config:cfg ~seed:1 () in
  let enables = ref [] in
  let key_ref = ref None in
  let remaining = ref 4 in
  let on_enable () =
    enables := Scheduler.now sched :: !enables;
    if !remaining > 0 then begin
      decr remaining;
      ignore (Supervisor.protect sup (Option.get !key_ref) crash)
    end
  in
  let key = Supervisor.register sup ~name:"h" ~on_enable () in
  key_ref := Some key;
  ignore (Supervisor.protect sup key crash);
  Scheduler.run sched;
  (* Delays 10, 20, 40, then capped at 40, each plus its jitter. *)
  let enables = List.rev !enables in
  check_jittered "growth"
    [ Sim_time.us 10; Sim_time.us 20; Sim_time.us 40; Sim_time.us 40; Sim_time.us 40 ]
    enables;
  Alcotest.(check (list int))
    "exponential growth up to the cap, seed 1"
    [ 15_128_936; 45_111_692; 98_276_883; 155_546_526; 197_567_729 ]
    enables;
  Alcotest.(check int) "five trips" 5 (Supervisor.trips sup);
  Alcotest.(check int) "five recoveries" 5 (Supervisor.recoveries sup)

let test_backoff_jitter_deterministic () =
  let timeline seed =
    let sched = Scheduler.create () in
    let cfg = config ~base_backoff:(Sim_time.us 10) () in
    let sup = Supervisor.create ~sched ~config:cfg ~seed () in
    let enables = ref [] in
    let key_ref = ref None in
    let remaining = ref 3 in
    let on_enable () =
      enables := Scheduler.now sched :: !enables;
      if !remaining > 0 then begin
        decr remaining;
        ignore (Supervisor.protect sup (Option.get !key_ref) crash)
      end
    in
    let key = Supervisor.register sup ~name:"h" ~on_enable () in
    key_ref := Some key;
    ignore (Supervisor.protect sup key crash);
    Scheduler.run sched;
    List.rev !enables
  in
  let a = timeline 7 and b = timeline 7 and c = timeline 8 in
  Alcotest.(check (list int)) "same seed, same jittered backoffs" a b;
  Alcotest.(check bool) "different seed diverges" true (a <> c);
  check_jittered "seed 7" (List.init 4 (fun i -> Sim_time.us 10 * (1 lsl i))) a

let test_max_trips_permanent () =
  let sched = Scheduler.create () in
  let cfg = config ~base_backoff:(Sim_time.us 10) () in
  let sup = Supervisor.create ~sched ~config:cfg ~seed:1 () in
  let key_ref = ref None in
  let on_enable () = ignore (Supervisor.protect sup (Option.get !key_ref) crash) in
  let key = Supervisor.register sup ~name:"h" ~on_enable () in
  key_ref := Some key;
  ignore (Supervisor.protect sup key crash);
  Scheduler.run sched;
  Alcotest.(check bool) "permanently failed" true (Supervisor.permanently_failed key);
  Alcotest.(check bool) "inactive" false (Supervisor.active key);
  Alcotest.(check int) "eight trips" 8 (Supervisor.trips sup);
  Alcotest.(check int) "seven recoveries (before the final trip)" 7 (Supervisor.recoveries sup);
  Alcotest.(check int) "one permanent failure" 1 (Supervisor.permanent_failures sup)

(* --- supervisor: watchdog + injection hooks --- *)

let test_watchdog_budget () =
  let sched = Scheduler.create () in
  let cfg = config ~base_backoff:(Sim_time.us 10) () in
  let sup = Supervisor.create ~sched ~config:cfg ~seed:1 () in
  let key = Supervisor.register sup ~name:"w" () in
  let finished = ref false in
  (* The budget is 100,000 steps per invocation. *)
  let ok =
    Supervisor.protect sup key (fun () ->
        Supervisor.consume sup 60_000;
        Supervisor.consume sup 60_000;
        finished := true)
  in
  Alcotest.(check bool) "over-budget invocation trapped" false ok;
  Alcotest.(check bool) "body interrupted at the budget" false !finished;
  Alcotest.(check int) "watchdog trip counted" 1 (Supervisor.watchdog_trips sup);
  Alcotest.(check bool) "quarantined by the watchdog" false (Supervisor.active key);
  Scheduler.run sched;
  Alcotest.(check bool) "within-budget invocation fine" true
    (Supervisor.protect sup key (fun () -> Supervisor.consume sup 100_000))

(* The budget is exactly 100,000 steps: the step past it trips the
   watchdog, and the next invocation starts with a full budget. *)
let test_watchdog_budget_boundary () =
  let sched = Scheduler.create () in
  let sup = Supervisor.create ~sched ~config:(config ~policy:Policy.Drop_event ()) ~seed:1 () in
  let key = Supervisor.register sup ~name:"w" () in
  let steps = ref 0 in
  let run n =
    Supervisor.protect sup key (fun () ->
        for _ = 1 to n do
          Supervisor.consume sup 1;
          incr steps
        done)
  in
  Alcotest.(check bool) "100,000 steps fit" true (run 100_000);
  steps := 0;
  Alcotest.(check bool) "100,001 steps trip" false (run 100_001);
  Alcotest.(check int) "stopped at the step past the budget" 100_000 !steps;
  Alcotest.(check int) "one watchdog trip" 1 (Supervisor.watchdog_trips sup);
  Alcotest.(check bool) "the budget refills" true (run 100_000)

let test_injection_hooks () =
  let sched = Scheduler.create () in
  let sup = Supervisor.create ~sched ~config:(config ~policy:Policy.Drop_event ()) ~seed:1 () in
  let key = Supervisor.register sup ~name:"h" () in
  Supervisor.inject_crash key ~n:2;
  let ran = ref 0 in
  let call () = Supervisor.protect sup key (fun () -> incr ran) in
  Alcotest.(check bool) "armed crash 1" false (call ());
  Alcotest.(check bool) "armed crash 2" false (call ());
  Alcotest.(check bool) "disarmed" true (call ());
  Alcotest.(check int) "body ran only once" 1 !ran;
  Alcotest.(check int) "two injected crashes" 2 (Supervisor.key_crashes key);
  Supervisor.inject_slowdown key ~steps:100_001 ~n:1;
  Alcotest.(check bool) "slowdown busts the budget" false (call ());
  Alcotest.(check int) "slowdown trips the watchdog" 1 (Supervisor.watchdog_trips sup);
  Alcotest.(check bool) "next invocation clean" true (call ());
  Alcotest.(check int) "bodies ran twice total" 2 !ran

let test_nested_guards () =
  let sched = Scheduler.create () in
  let sup = Supervisor.create ~sched ~config:(config ()) ~seed:1 () in
  let outer = Supervisor.register sup ~name:"outer" () in
  let inner = Supervisor.register sup ~name:"inner" () in
  let ok =
    Supervisor.protect sup outer (fun () ->
        Supervisor.consume sup 50_000;
        (* The inner guard crashes; the outer one must keep its own
           identity and remaining budget. *)
        Alcotest.(check bool) "inner crash trapped" false (Supervisor.protect sup inner crash);
        Supervisor.consume sup 50_000)
  in
  Alcotest.(check bool) "outer invocation survives" true ok;
  Alcotest.(check bool) "outer key untouched" true (Supervisor.active outer);
  Alcotest.(check int) "crash attributed to the inner key" 1 (Supervisor.key_crashes inner);
  Alcotest.(check int) "no crash on the outer key" 0 (Supervisor.key_crashes outer)

(* --- shedder --- *)

let mk_shedder () =
  Shedder.create
    ~config:
      {
        Shedder.tiers =
          [
            { Shedder.name = "telemetry"; classes = [ 4; 5 ]; high = 4; low = 2 };
            { Shedder.name = "control"; classes = [ 9 ]; high = 8; low = 4 };
          ];
      }
    ()

let test_shedder_tiers_and_hysteresis () =
  let s = mk_shedder () in
  Alcotest.(check bool) "below watermark: nothing shed" false (Shedder.offer s ~depth:3 ~cls:4);
  Alcotest.(check bool) "telemetry sheds at its high" true (Shedder.offer s ~depth:4 ~cls:4);
  Alcotest.(check bool) "control not yet" false (Shedder.offer s ~depth:4 ~cls:9);
  Alcotest.(check bool) "unlisted class never shed" false (Shedder.offer s ~depth:4 ~cls:0);
  Alcotest.(check int) "one tier active" 1 (Shedder.level s);
  Alcotest.(check bool) "control sheds at 2x" true (Shedder.offer s ~depth:8 ~cls:9);
  Alcotest.(check int) "both tiers active" 2 (Shedder.level s);
  (* Hysteresis: above low the tier keeps shedding... *)
  Alcotest.(check bool) "telemetry still shedding at depth 3" true (Shedder.offer s ~depth:3 ~cls:4);
  Alcotest.(check int) "control recovered below its low" 1 (Shedder.level s);
  (* ...and recovers only below it. *)
  Alcotest.(check bool) "telemetry recovers below low" false (Shedder.offer s ~depth:1 ~cls:4);
  Alcotest.(check int) "all tiers recovered" 0 (Shedder.level s);
  Alcotest.(check int) "three events shed in total" 3 (Shedder.shed_total s);
  match Shedder.tier_stats s with
  | [ ("telemetry", t_act, t_shed); ("control", c_act, c_shed) ] ->
      Alcotest.(check (pair int int)) "telemetry stats" (1, 2) (t_act, t_shed);
      Alcotest.(check (pair int int)) "control stats" (1, 1) (c_act, c_shed)
  | _ -> Alcotest.fail "expected two tiers in order"

let test_shedder_validation () =
  let mk tiers = ignore (Shedder.create ~config:{ Shedder.tiers } ()) in
  let expect_invalid name tiers =
    match mk tiers with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "descending watermarks"
    [
      { Shedder.name = "a"; classes = [ 1 ]; high = 8; low = 4 };
      { Shedder.name = "b"; classes = [ 2 ]; high = 4; low = 2 };
    ];
  expect_invalid "low >= high" [ { Shedder.name = "a"; classes = [ 1 ]; high = 4; low = 4 } ];
  expect_invalid "overlapping classes"
    [
      { Shedder.name = "a"; classes = [ 1 ]; high = 4; low = 2 };
      { Shedder.name = "b"; classes = [ 1 ]; high = 8; low = 4 };
    ]

let test_merger_shed_config_ladder () =
  let s = Shedder.create ~config:(Devents.Event_merger.shed_config ~watermark:3) () in
  let ix cls = Event.cls_index cls in
  Alcotest.(check bool) "telemetry sheds at w" true
    (Shedder.offer s ~depth:3 ~cls:(ix Event.Packet_transmitted));
  Alcotest.(check bool) "control holds at w" false
    (Shedder.offer s ~depth:3 ~cls:(ix Event.Timer_expiration));
  Alcotest.(check bool) "control sheds at 2w" true
    (Shedder.offer s ~depth:6 ~cls:(ix Event.Timer_expiration));
  Alcotest.(check bool) "packets hold at 2w" false
    (Shedder.offer s ~depth:6 ~cls:(ix Event.Ingress_packet));
  Alcotest.(check bool) "packets shed at 4w" true
    (Shedder.offer s ~depth:12 ~cls:(ix Event.Ingress_packet));
  (* Overflow and link-status events surface the very conditions
     degradation must report: never shed, whatever the depth. *)
  Alcotest.(check bool) "overflow never shed" false
    (Shedder.offer s ~depth:1000 ~cls:(ix Event.Buffer_overflow));
  Alcotest.(check bool) "link-change never shed" false
    (Shedder.offer s ~depth:1000 ~cls:(ix Event.Link_status_change))

(* --- invariant checker --- *)

let test_invariants_record () =
  let sched = Scheduler.create () in
  let inv = Invariants.create ~sched ~period:(Sim_time.us 10) () in
  let bad = ref false in
  Invariants.add inv ~name:"ok" (fun () -> None);
  Invariants.add inv ~name:"gauge" (fun () -> if !bad then Some "broken" else None);
  Invariants.start inv ~stop:(Sim_time.us 100);
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 55) (fun () -> bad := true));
  Scheduler.run sched;
  Alcotest.(check int) "ten sweeps" 10 (Invariants.passes inv);
  Alcotest.(check int) "two checks per sweep" 20 (Invariants.checks_run inv);
  Alcotest.(check int) "violations once the state breaks" 5 (Invariants.violations inv);
  Alcotest.(check (list (pair string int)))
    "per-check attribution"
    [ ("ok", 0); ("gauge", 5) ]
    (Invariants.check_stats inv);
  match Invariants.violation_log inv with
  | (at, "gauge", "broken") :: _ -> Alcotest.(check int) "first violation at 60us" (Sim_time.us 60) at
  | _ -> Alcotest.fail "expected a logged violation"

let test_invariants_abort_and_crashing_check () =
  let sched = Scheduler.create () in
  let inv = Invariants.create ~sched ~policy:Invariants.Abort () in
  Invariants.add inv ~name:"always-bad" (fun () -> Some "nope");
  (* One sweep, at the 100 us period. *)
  Invariants.start inv ~stop:(Sim_time.us 100);
  (match Scheduler.run sched with
  | () -> Alcotest.fail "expected Violation"
  | exception Invariants.Violation ("always-bad", "nope") -> ());
  (* A crashing check is a violation of its own contract, recorded under
     [Record] rather than killing the checker. *)
  let sched = Scheduler.create () in
  let inv = Invariants.create ~sched () in
  Invariants.add inv ~name:"crashy" (fun () -> failwith "kaboom");
  Invariants.start inv ~stop:(Sim_time.us 100);
  Scheduler.run sched;
  Alcotest.(check int) "crash recorded as violation" 1 (Invariants.violations inv);
  Alcotest.(check int) "checker survives" 1 (Invariants.passes inv)

(* --- event-switch integration --- *)

let test_switch_quarantine_and_recovery () =
  let sched = Scheduler.create () in
  let crashing = ref true in
  let program _ctx =
    Program.make ~name:"crashy"
      ~ingress:(fun _ctx _pkt -> Program.Forward 1)
      ~enqueue:(fun _ctx _ev -> if !crashing then failwith "enqueue boom")
      ()
  in
  let sw_config =
    let base = Event_switch.default_config Arch.event_pisa_full in
    {
      base with
      Event_switch.resil = config ~base_backoff:(Sim_time.us 20) ();
    }
  in
  let sw = Event_switch.create ~sched ~config:sw_config ~program () in
  Event_switch.set_port_tx sw ~port:1 (fun _ -> ());
  for i = 0 to 9 do
    ignore
      (Scheduler.schedule sched ~at:(Sim_time.us i) (fun () ->
           Event_switch.inject sw ~port:0 (mk_packet ())))
  done;
  ignore (Scheduler.schedule sched ~at:(Sim_time.us 15) (fun () -> crashing := false));
  for i = 0 to 4 do
    ignore
      (Scheduler.schedule sched
         ~at:(Sim_time.us 50 + Sim_time.us i)
         (fun () -> Event_switch.inject sw ~port:0 (mk_packet ())))
  done;
  Scheduler.run sched;
  let sup = Event_switch.supervisor sw in
  let key = Event_switch.handler_key sw Event.Buffer_enqueue in
  Alcotest.(check int) "one trip" 1 (Supervisor.trips sup);
  Alcotest.(check int) "one backoff recovery" 1 (Supervisor.recoveries sup);
  Alcotest.(check bool) "handler re-subscribed" true (Supervisor.active key);
  Alcotest.(check string) "key named after the class" "buffer-enqueue" (Supervisor.key_name key);
  (* Quarantine drops the subscription, so only post-recovery enqueue
     events are delivered — and all of them complete. *)
  Alcotest.(check int) "post-recovery events handled" 5
    (Event_switch.handled sw Event.Buffer_enqueue);
  (* Packets themselves were never supervised-dropped: only the
     metadata handler tripped. *)
  Alcotest.(check int) "no packet decisions lost" 0 (Event_switch.supervised_drops sw);
  let m = Obs.Metrics.create () in
  Event_switch.export_metrics sw m;
  (match Obs.Metrics.find_value m ~labels:[ ("switch", "0") ] "resil.trips" with
  | Some (Obs.Metrics.Counter_v n) -> Alcotest.(check int) "resil.trips exported" 1 n
  | _ -> Alcotest.fail "resil.trips series missing");
  match
    Obs.Metrics.find_value m
      ~labels:[ ("handler", "buffer-enqueue"); ("switch", "0") ]
      "resil.handler.trips"
  with
  | Some (Obs.Metrics.Counter_v n) -> Alcotest.(check int) "per-handler trips exported" 1 n
  | _ -> Alcotest.fail "resil.handler.trips series missing"

let test_switch_packet_handler_quarantine_accounts_drops () =
  (* A crashing ingress handler: the packet in the pipeline has no
     decision, so it must be accounted as a supervised drop and further
     packets dropped while the handler is quarantined. *)
  let sched = Scheduler.create () in
  let program _ctx =
    Program.make ~name:"crashy-ingress" ~ingress:(fun _ctx _pkt -> failwith "ingress boom") ()
  in
  let sw_config =
    let base = Event_switch.default_config Arch.event_pisa_full in
    { base with Event_switch.resil = config ~base_backoff:(Sim_time.ms 10) () }
  in
  let sw = Event_switch.create ~sched ~config:sw_config ~program () in
  for i = 0 to 4 do
    ignore
      (Scheduler.schedule sched ~at:(Sim_time.us i) (fun () ->
           Event_switch.inject sw ~port:0 (mk_packet ())))
  done;
  Scheduler.run sched;
  let sup = Event_switch.supervisor sw in
  Alcotest.(check int) "one crash, then quarantined" 1 (Supervisor.crashes sup);
  Alcotest.(check int) "every packet accounted as a supervised drop" 5
    (Event_switch.supervised_drops sw);
  Alcotest.(check int) "none counted handled" 0 (Event_switch.handled sw Event.Ingress_packet)

let test_switch_shed_watermark_installs_shedder () =
  let sched = Scheduler.create () in
  let base = Event_switch.default_config Arch.event_pisa_full in
  let sw =
    Event_switch.create ~sched
      ~config:{ base with Event_switch.shed_watermark = Some 4 }
      ~program:(Fixtures.forward_all ~out_port:1)
      ()
  in
  Alcotest.(check bool) "shedder installed" true
    (Devents.Event_merger.shedder (Event_switch.merger sw) <> None);
  let sw2 = Event_switch.create ~sched ~config:base ~program:(Fixtures.forward_all ~out_port:1) () in
  Alcotest.(check bool) "no shedder by default" true
    (Devents.Event_merger.shedder (Event_switch.merger sw2) = None)

let suite =
  [
    Alcotest.test_case "policy round-trip" `Quick test_policy_round_trip;
    Alcotest.test_case "fail-fast raises" `Quick test_fail_fast_raises;
    Alcotest.test_case "drop-event absorbs" `Quick test_drop_event_absorbs;
    Alcotest.test_case "quarantine lifecycle" `Quick test_quarantine_lifecycle;
    Alcotest.test_case "backoff growth + cap" `Quick test_backoff_growth_and_cap;
    Alcotest.test_case "backoff jitter deterministic" `Quick test_backoff_jitter_deterministic;
    Alcotest.test_case "max trips -> permanent" `Quick test_max_trips_permanent;
    Alcotest.test_case "watchdog budget" `Quick test_watchdog_budget;
    Alcotest.test_case "watchdog budget boundary" `Quick test_watchdog_budget_boundary;
    Alcotest.test_case "injection hooks" `Quick test_injection_hooks;
    Alcotest.test_case "nested guards" `Quick test_nested_guards;
    Alcotest.test_case "shedder tiers + hysteresis" `Quick test_shedder_tiers_and_hysteresis;
    Alcotest.test_case "shedder validation" `Quick test_shedder_validation;
    Alcotest.test_case "merger shed ladder" `Quick test_merger_shed_config_ladder;
    Alcotest.test_case "invariants record" `Quick test_invariants_record;
    Alcotest.test_case "invariants abort + crashing check" `Quick
      test_invariants_abort_and_crashing_check;
    Alcotest.test_case "switch quarantine + recovery" `Quick test_switch_quarantine_and_recovery;
    Alcotest.test_case "switch packet-handler quarantine" `Quick
      test_switch_packet_handler_quarantine_accounts_drops;
    Alcotest.test_case "switch shed-watermark install" `Quick
      test_switch_shed_watermark_installs_shedder;
  ]
