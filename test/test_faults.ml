(* Tests for the fault-injection subsystem: each fault process in
   isolation, plus the engine's accounting. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Link = Tmgr.Link
module Packet = Netcore.Packet
module Schedule = Faults.Schedule
module Perturb = Faults.Perturb

let mk_pkt ?(bytes = 100) () =
  Packet.udp_packet
    ~src:(Netcore.Ipv4_addr.of_string "10.0.0.1")
    ~dst:(Netcore.Ipv4_addr.of_string "10.0.0.2")
    ~src_port:1 ~dst_port:2
    ~payload_len:(max 0 (bytes - 42))
    ()

let occurrences ?(seed = 1) ~stop plan =
  let sched = Scheduler.create () in
  let rng = Stats.Rng.create ~seed in
  let times = ref [] in
  Schedule.drive ~sched ~rng ~stop plan (fun () ->
      times := Scheduler.now sched :: !times);
  Scheduler.run sched;
  List.rev !times

(* --- schedules --- *)

let test_schedule_trace () =
  let times =
    occurrences ~stop:(Sim_time.us 100)
      (Schedule.Trace [ Sim_time.us 30; Sim_time.us 10; Sim_time.us 10; Sim_time.us 200 ])
  in
  (* Sorted, deduplicated, beyond-stop occurrence dropped. *)
  Alcotest.(check (list int)) "trace times" [ Sim_time.us 10; Sim_time.us 30 ] times

let test_schedule_periodic () =
  let times =
    occurrences ~stop:(Sim_time.us 100)
      (Schedule.Periodic { start = Sim_time.us 10; period = Sim_time.us 30; jitter = 0 })
  in
  Alcotest.(check (list int))
    "exact arithmetic times"
    [ Sim_time.us 10; Sim_time.us 40; Sim_time.us 70 ]
    times

let test_schedule_jitter_deterministic () =
  let plan =
    Schedule.Periodic
      { start = Sim_time.us 5; period = Sim_time.us 20; jitter = Sim_time.us 10 }
  in
  let a = occurrences ~seed:9 ~stop:(Sim_time.ms 1) plan in
  let b = occurrences ~seed:9 ~stop:(Sim_time.ms 1) plan in
  Alcotest.(check (list int)) "same seed, same jittered timeline" a b;
  List.iteri
    (fun i t ->
      if i > 0 then
        let gap = t - List.nth a (i - 1) in
        Alcotest.(check bool)
          "gap within [period, period+jitter]" true
          (gap >= Sim_time.us 20 && gap <= Sim_time.us 30))
    a

let test_schedule_poisson_deterministic () =
  let plan = Schedule.Poisson { start = Sim_time.us 10; rate_per_sec = 1e6 } in
  let a = occurrences ~seed:3 ~stop:(Sim_time.ms 1) plan in
  let b = occurrences ~seed:3 ~stop:(Sim_time.ms 1) plan in
  let c = occurrences ~seed:4 ~stop:(Sim_time.ms 1) plan in
  Alcotest.(check (list int)) "same seed, same timeline" a b;
  Alcotest.(check bool) "different seed, different timeline" true (a <> c);
  Alcotest.(check bool) "a useful number of occurrences" true (List.length a > 100);
  List.iter
    (fun t ->
      Alcotest.(check bool) "within [start, stop)" true
        (t >= Sim_time.us 10 && t < Sim_time.ms 1))
    a

(* --- perturbations --- *)

let mk_link sched got =
  let ep = { Link.deliver = (fun _ -> incr got); notify_status = (fun ~up:_ -> ()) } in
  Link.create ~sched ~delay:(Sim_time.us 1) ~a:ep ~b:ep ()

let test_perturb_none () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let link = mk_link sched got in
  Perturb.attach ~rng:(Stats.Rng.create ~seed:1) Perturb.none link;
  for _ = 1 to 50 do
    Link.send link ~from_a:true (mk_pkt ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "all delivered" 50 !got;
  Alcotest.(check int) "no drops" 0 (Link.perturb_drops link);
  Alcotest.(check int) "no dups" 0 (Link.perturb_dups link);
  Alcotest.(check int) "no delays" 0 (Link.perturb_delays link)

let test_perturb_bands () =
  (* drop_p = 1: every packet dropped. *)
  let sched = Scheduler.create () in
  let got = ref 0 in
  let link = mk_link sched got in
  let all_drop = { Perturb.none with Perturb.drop_p = 1. } in
  Perturb.attach ~rng:(Stats.Rng.create ~seed:1) all_drop link;
  for _ = 1 to 20 do
    Link.send link ~from_a:true (mk_pkt ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all dropped" 20 (Link.perturb_drops link);
  Alcotest.(check int) "drops are also link losses" 20 (Link.lost link)

let test_perturb_statistics () =
  (* With a lossy config over many packets every verdict class shows
     up, and the verdict stream is seed-deterministic. *)
  let run seed =
    let sched = Scheduler.create () in
    let got = ref 0 in
    let link = mk_link sched got in
    let verdicts = ref [] in
    let tag = function
      | Link.Deliver -> 'k'
      | Link.Drop -> 'x'
      | Link.Delay _ -> 'd'
      | Link.Duplicate _ -> '2'
    in
    Perturb.attach ~rng:(Stats.Rng.create ~seed)
      ~on_decision:(fun v -> verdicts := tag v :: !verdicts)
      (Perturb.lossy ~drop_p:0.1 ~dup_p:0.1 ~delay_p:0.1 ~max_extra_delay:(Sim_time.us 2) ())
      link;
    for _ = 1 to 400 do
      Link.send link ~from_a:true (mk_pkt ())
    done;
    Scheduler.run sched;
    (List.rev !verdicts, !got, Link.perturb_drops link, Link.perturb_dups link)
  in
  let v1, got, drops, dups = run 11 in
  let v2, _, _, _ = run 11 in
  Alcotest.(check (list char)) "verdicts deterministic" v1 v2;
  let count c = List.length (List.filter (Char.equal c) v1) in
  Alcotest.(check bool) "every class occurred" true
    (count 'k' > 0 && count 'x' > 0 && count 'd' > 0 && count '2' > 0);
  Alcotest.(check int) "drops match verdicts" (count 'x') drops;
  Alcotest.(check bool) "dup copies at least one per verdict" true (dups >= count '2');
  Alcotest.(check int) "conservation: delivered = sent - drops + dup copies"
    (400 - drops + dups) got

let test_perturb_check_config () =
  let sched = Scheduler.create () in
  let link = mk_link sched (ref 0) in
  Alcotest.check_raises "probabilities must sum <= 1"
    (Invalid_argument "Faults.Perturb: probabilities must be >= 0 and sum to <= 1")
    (fun () ->
      Perturb.attach ~rng:(Stats.Rng.create ~seed:1)
        (Perturb.lossy ~drop_p:0.5 ~dup_p:0.5 ~delay_p:0.5 ())
        link)

(* --- flapper --- *)

let test_flapper () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let link = mk_link sched got in
  let flaps = ref [] in
  Faults.Flapper.attach ~sched ~rng:(Stats.Rng.create ~seed:1)
    ~stop:(Sim_time.us 500)
    ~plan:(Schedule.Trace [ Sim_time.us 100; Sim_time.us 120 ])
    ~down_for:(Sim_time.us 50)
    ~on_flap:(fun ~effective -> flaps := effective :: !flaps)
    link;
  (* Probe the link state around the outage window. *)
  let probe = ref [] in
  List.iter
    (fun at ->
      ignore
        (Scheduler.schedule sched ~at (fun () -> probe := Link.is_up link :: !probe)))
    [ Sim_time.us 90; Sim_time.us 110; Sim_time.us 140; Sim_time.us 160 ];
  Scheduler.run sched;
  (* Occurrence at 120 lands inside the 100..150 outage: absorbed. *)
  Alcotest.(check (list bool)) "first flap effective, second absorbed" [ true; false ]
    (List.rev !flaps);
  Alcotest.(check (list bool)) "up, down (outage), down, up" [ true; false; false; true ]
    (List.rev !probe);
  Alcotest.(check bool) "link ends the run up" true (Link.is_up link)

(* --- burst --- *)

let test_burst () =
  let sched = Scheduler.create () in
  let injected = ref [] in
  Faults.Burst.attach ~sched ~rng:(Stats.Rng.create ~seed:1)
    ~stop:(Sim_time.us 500)
    ~plan:(Schedule.Trace [ Sim_time.us 100 ])
    ~pkts_per_burst:5 ~pkt_bytes:1000 ~rate_gbps:10.
    ~template:(fun i -> mk_pkt ~bytes:(100 + i) ())
    ~inject:(fun pkt -> injected := (Scheduler.now sched, Packet.len pkt) :: !injected)
    ();
  Scheduler.run sched;
  let injected = List.rev !injected in
  Alcotest.(check int) "train length" 5 (List.length injected);
  let gap = Sim_time.tx_time ~bytes:1000 ~gbps:10. in
  List.iteri
    (fun i (at, len) ->
      Alcotest.(check int) "line-rate spacing" (Sim_time.us 100 + (i * gap)) at;
      Alcotest.(check int) "template index" (100 + i) len)
    injected

(* --- churn --- *)

let test_churn () =
  let sched = Scheduler.create () in
  let counts = Hashtbl.create 4 in
  let bump name () =
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let ops = [| ("a", bump "a"); ("b", bump "b"); ("c", bump "c") |] in
  let named = ref 0 in
  Faults.Churn.attach ~sched ~rng:(Stats.Rng.create ~seed:5)
    ~stop:(Sim_time.ms 1)
    ~plan:(Schedule.Periodic { start = Sim_time.us 10; period = Sim_time.us 10; jitter = 0 })
    ~ops
    ~on_op:(fun _ -> incr named)
    ();
  Scheduler.run sched;
  let total = Hashtbl.fold (fun _ n acc -> acc + n) counts 0 in
  Alcotest.(check int) "one op per occurrence" 99 total;
  Alcotest.(check int) "on_op saw each" 99 !named;
  Alcotest.(check bool) "uniform pick reaches every op" true (Hashtbl.length counts = 3)

(* --- engine --- *)

let test_engine_accounting () =
  let sched = Scheduler.create () in
  let got = ref 0 in
  let link = mk_link sched got in
  let engine = Faults.Engine.create ~sched ~seed:42 ~stop:(Sim_time.us 400) () in
  Faults.Engine.add_link_flaps engine ~name:"flap"
    ~plan:(Schedule.Trace [ Sim_time.us 50; Sim_time.us 60 ])
    ~down_for:(Sim_time.us 30) link;
  Faults.Engine.add_churn engine ~name:"churn"
    ~plan:(Schedule.Trace [ Sim_time.us 10; Sim_time.us 20 ])
    ~ops:[| ("noop", fun () -> ()) |];
  Scheduler.run sched;
  let stats = Faults.Engine.stats engine in
  Alcotest.(check (list string)) "classes sorted" [ "churn"; "flap" ] (List.map fst stats);
  let flap = List.assoc "flap" stats in
  Alcotest.(check int) "flap injected" 1 flap.Faults.Engine.injected;
  Alcotest.(check int) "flap absorbed" 1 flap.Faults.Engine.absorbed;
  let churn = List.assoc "churn" stats in
  Alcotest.(check int) "churn injected" 2 churn.Faults.Engine.injected;
  Alcotest.(check int) "engine total" 3 (Faults.Engine.total_injected engine);
  (* Metrics export is deterministic and labelled by fault class. *)
  let m = Obs.Metrics.create () in
  Faults.Engine.export_metrics engine m;
  Alcotest.(check (option bool)) "injected series exported" (Some true)
    (Option.map
       (function Obs.Metrics.Counter_v 1 -> true | _ -> false)
       (Obs.Metrics.find_value m ~labels:[ ("fault", "flap") ] "faults.injected"))

let test_engine_handler_fault_absorbed_when_quarantined () =
  (* A handler-fault occurrence that finds its target already
     quarantined cannot take effect: it must land in the engine's
     [absorbed] channel, like a flap inside an outage. *)
  let sched = Scheduler.create () in
  let sup =
    Resil.Supervisor.create ~sched
      ~config:
        {
          (Resil.Supervisor.default_config ()) with
          Resil.Supervisor.policy = Resil.Policy.Quarantine;
          base_backoff = Sim_time.us 200;
        }
      ~seed:7 ()
  in
  let key = Resil.Supervisor.register sup ~name:"h" () in
  let engine = Faults.Engine.create ~sched ~seed:42 ~stop:(Sim_time.us 400) () in
  Faults.Engine.add_handler_crash engine ~name:"hcrash"
    ~plan:(Schedule.Trace [ Sim_time.us 10; Sim_time.us 30; Sim_time.us 50 ])
    key;
  (* Invoke the guarded handler just after the first arming: it crashes
     and quarantines the key for 200us, so the two later occurrences
     find it inactive. *)
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.us 15) (fun () ->
         ignore (Resil.Supervisor.protect sup key (fun () -> ()))));
  Scheduler.run sched;
  let c = List.assoc "hcrash" (Faults.Engine.stats engine) in
  Alcotest.(check int) "first arming injected" 1 c.Faults.Engine.injected;
  Alcotest.(check int) "quarantined occurrences absorbed" 2 c.Faults.Engine.absorbed;
  Alcotest.(check int) "exactly one crash delivered" 1 (Resil.Supervisor.crashes sup);
  Alcotest.(check int) "one backoff recovery" 1 (Resil.Supervisor.recoveries sup)

let suite =
  [
    Alcotest.test_case "schedule trace" `Quick test_schedule_trace;
    Alcotest.test_case "schedule periodic" `Quick test_schedule_periodic;
    Alcotest.test_case "schedule jitter deterministic" `Quick test_schedule_jitter_deterministic;
    Alcotest.test_case "schedule poisson deterministic" `Quick test_schedule_poisson_deterministic;
    Alcotest.test_case "perturb none" `Quick test_perturb_none;
    Alcotest.test_case "perturb bands" `Quick test_perturb_bands;
    Alcotest.test_case "perturb statistics" `Quick test_perturb_statistics;
    Alcotest.test_case "perturb config check" `Quick test_perturb_check_config;
    Alcotest.test_case "flapper" `Quick test_flapper;
    Alcotest.test_case "burst" `Quick test_burst;
    Alcotest.test_case "churn" `Quick test_churn;
    Alcotest.test_case "engine accounting" `Quick test_engine_accounting;
    Alcotest.test_case "handler fault absorbed when quarantined" `Quick
      test_engine_handler_fault_absorbed_when_quarantined;
  ]
