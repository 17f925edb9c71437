(* Tests for PISA pipeline primitives. *)

module Register_array = Pisa.Register_array
module Register_alloc = Pisa.Register_alloc
module Match_table = Pisa.Match_table
module Counter = Pisa.Counter
module Meter = Pisa.Meter
module Cms = Pisa.Cms
module Pipeline = Pisa.Pipeline
module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

let test_register_basics () =
  let r = Register_array.create ~name:"r" ~entries:8 ~width:16 () in
  Register_array.write r 3 0x1234;
  Alcotest.(check int) "read back" 0x1234 (Register_array.read r 3);
  Register_array.write r 3 0x12345 (* masked to 16 bits *);
  Alcotest.(check int) "width mask" 0x2345 (Register_array.read r 3);
  Alcotest.(check int) "bits" 128 (Register_array.bits r);
  Alcotest.(check int) "adds wrap" 0 (Register_array.add r 0 0x10000)

let test_register_bounds () =
  let r = Register_array.create ~name:"r" ~entries:4 ~width:8 () in
  Alcotest.check_raises "oob" (Invalid_argument "Register_array r: index 4 out of [0,4)")
    (fun () -> ignore (Register_array.read r 4))

let test_register_conflicts () =
  let cycle = ref 0 in
  let r = Register_array.create ~clock:(fun () -> !cycle) ~name:"r" ~entries:4 ~width:8 () in
  Register_array.write r 0 1;
  Register_array.write r 1 1 (* same cycle: conflict *);
  cycle := 1;
  Register_array.write r 2 1 (* new cycle: fine *);
  Alcotest.(check int) "one conflict" 1 (Register_array.conflicts r)

let test_register_alloc_accounting () =
  let alloc = Register_alloc.create () in
  let _a = Register_alloc.array alloc ~name:"a" ~entries:1024 ~width:32 in
  let _b = Register_alloc.array alloc ~name:"b" ~entries:16 ~width:1 in
  Alcotest.(check int) "total bits" ((1024 * 32) + 16) (Register_alloc.total_bits alloc);
  Alcotest.(check int) "two registers" 2 (List.length (Register_alloc.registers alloc))

let test_exact_table () =
  let t = Match_table.exact ~name:"t" in
  Match_table.add_exact t ~key:42 "a";
  Match_table.set_default t "dflt";
  Alcotest.(check (option string)) "hit" (Some "a") (Match_table.lookup t 42);
  Alcotest.(check (option string)) "default" (Some "dflt") (Match_table.lookup t 7);
  Match_table.remove_exact t ~key:42;
  Alcotest.(check (option string)) "removed" (Some "dflt") (Match_table.lookup t 42);
  Alcotest.(check int) "lookups" 3 (Match_table.lookups t);
  Alcotest.(check int) "hits" 1 (Match_table.hits t)

let test_lpm_table () =
  let t = Match_table.lpm ~name:"routes" ~key_bits:32 in
  let ip s = Netcore.Ipv4_addr.to_int (Netcore.Ipv4_addr.of_string s) in
  Match_table.add_lpm t ~prefix:(ip "10.0.0.0") ~len:8 "coarse";
  Match_table.add_lpm t ~prefix:(ip "10.1.0.0") ~len:16 "fine";
  Match_table.add_lpm t ~prefix:0 ~len:0 "default-route";
  Alcotest.(check (option string)) "longest wins" (Some "fine") (Match_table.lookup t (ip "10.1.2.3"));
  Alcotest.(check (option string)) "coarse" (Some "coarse") (Match_table.lookup t (ip "10.9.2.3"));
  Alcotest.(check (option string)) "zero-length" (Some "default-route")
    (Match_table.lookup t (ip "192.168.0.1"))

let test_ternary_table () =
  let t = Match_table.ternary ~name:"acl" in
  Match_table.add_ternary t ~priority:1 ~value:0xff00 ~mask:0xff00 "hi";
  Match_table.add_ternary t ~priority:0 ~value:0x0000 ~mask:0x0000 "any";
  Alcotest.(check (option string)) "priority wins" (Some "hi") (Match_table.lookup t 0xff42);
  Alcotest.(check (option string)) "fallthrough" (Some "any") (Match_table.lookup t 0x0042)

let test_table_kind_mismatch () =
  let t = Match_table.exact ~name:"t" in
  Alcotest.check_raises "lpm on exact"
    (Invalid_argument "Match_table.add_lpm on non-lpm table t") (fun () ->
      Match_table.add_lpm t ~prefix:0 ~len:0 "x")

let test_counter () =
  let c = Counter.create ~entries:4 in
  Counter.count c ~index:1 ~bytes:100;
  Counter.count c ~index:1 ~bytes:200;
  Alcotest.(check int) "pkts" 2 (Counter.packets c 1);
  Alcotest.(check int) "bytes" 300 (Counter.bytes c 1);
  Alcotest.(check int) "total" 300 (Counter.total_bytes c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.total_packets c)

let test_meter_colors () =
  (* 1000 B/s CIR, 500 B committed burst, 300 B excess. *)
  let m = Meter.create ~cir_bytes_per_sec:1000. ~cbs:500 ~ebs:300 in
  Alcotest.(check string) "burst fits" "green"
    (Meter.color_to_string (Meter.mark m ~now_ps:0 ~bytes:400));
  Alcotest.(check string) "excess bucket" "yellow"
    (Meter.color_to_string (Meter.mark m ~now_ps:0 ~bytes:200));
  Alcotest.(check string) "exhausted" "red"
    (Meter.color_to_string (Meter.mark m ~now_ps:0 ~bytes:200));
  (* After one second the committed bucket refills. *)
  Alcotest.(check string) "refill" "green"
    (Meter.color_to_string (Meter.mark m ~now_ps:(Sim_time.sec 1) ~bytes:400))

let test_meter_long_term_rate () =
  let m = Meter.create ~cir_bytes_per_sec:10_000. ~cbs:1_000 ~ebs:0 in
  let accepted = ref 0 in
  (* Offer 100B packets at 2x CIR (200 pkts over one second). *)
  let gap = Sim_time.ms 5 in
  for i = 0 to 199 do
    match Meter.mark m ~now_ps:(i * gap) ~bytes:100 with
    | Meter.Green -> accepted := !accepted + 100
    | Meter.Yellow | Meter.Red -> ()
  done;
  (* Accepted volume over 1s must be close to CIR (plus one burst). *)
  let rate = float_of_int !accepted in
  Alcotest.(check bool) "within 15% of CIR" true (abs_float (rate -. 10_000.) < 1_500.)

let test_cms_never_undercounts () =
  let alloc = Register_alloc.create () in
  let cms = Cms.create ~alloc ~width:64 ~depth:3 ~counter_bits:32 () in
  let truth = Hashtbl.create 16 in
  let rng = Stats.Rng.create ~seed:99 in
  for _ = 1 to 2000 do
    let key = Stats.Rng.int rng 200 in
    Cms.update cms ~key ~delta:1;
    Hashtbl.replace truth key (1 + Option.value (Hashtbl.find_opt truth key) ~default:0)
  done;
  Hashtbl.iter
    (fun key count ->
      if Cms.query cms ~key < count then
        Alcotest.failf "undercount for key %d: %d < %d" key (Cms.query cms ~key) count)
    truth

let qcheck_cms_overcount_bounded =
  QCheck.Test.make ~name:"cms overestimate bounded by eN/width" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let alloc = Register_alloc.create () in
      let cms = Cms.create ~alloc ~width:256 ~depth:4 ~counter_bits:32 () in
      let rng = Stats.Rng.create ~seed in
      let n = 2000 in
      let truth = Hashtbl.create 64 in
      for _ = 1 to n do
        let key = Stats.Rng.int rng 500 in
        Cms.update cms ~key ~delta:1;
        Hashtbl.replace truth key (1 + Option.value (Hashtbl.find_opt truth key) ~default:0)
      done;
      (* With width 256 and depth 4, an error beyond 4*e*N/w is
         essentially impossible. *)
      let bound = 4. *. 2.72 *. float_of_int n /. 256. in
      Hashtbl.fold
        (fun key count ok ->
          ok && float_of_int (Cms.query cms ~key - count) <= bound)
        truth true)

let test_cms_reset () =
  let alloc = Register_alloc.create () in
  let cms = Cms.create ~alloc ~width:32 ~depth:2 ~counter_bits:32 () in
  Cms.update cms ~key:5 ~delta:10;
  Cms.reset cms;
  Alcotest.(check int) "cleared" 0 (Cms.query cms ~key:5)

let test_pipeline_admission_serialisation () =
  let sched = Scheduler.create () in
  let p = Pipeline.create ~sched () in
  Alcotest.(check int) "first admission now" 0 (Pipeline.earliest_admission p);
  let exit1 = Pipeline.admit p ~has_packet:true in
  Alcotest.(check int) "latency 80ns" (Sim_time.ns 80) exit1;
  (* Same instant: next slot is the next cycle. *)
  Alcotest.(check int) "next slot" (Sim_time.ns 5) (Pipeline.earliest_admission p);
  Alcotest.check_raises "double admission"
    (Invalid_argument "Pipeline.admit: admission slot already used this cycle") (fun () ->
      ignore (Pipeline.admit p ~has_packet:false))

let test_pipeline_idle_accounting () =
  let sched = Scheduler.create () in
  let p = Pipeline.create ~sched () in
  let m0 = Pipeline.mark p in
  ignore
    (Scheduler.schedule sched ~at:(Sim_time.ns 50) (fun () ->
         ignore (Pipeline.admit p ~has_packet:true)));
  Scheduler.run ~until:(Sim_time.ns 100) sched;
  (* 20 cycles elapsed, 1 admission -> 19 idle. *)
  let idle, _ = Pipeline.idle_cycles_since p m0 in
  Alcotest.(check int) "idle cycles" 19 idle;
  Alcotest.(check int) "admissions" 1 (Pipeline.admissions p);
  Alcotest.(check (float 0.001)) "busy fraction" 0.05 (Pipeline.busy_fraction p)

let suite =
  [
    Alcotest.test_case "register basics" `Quick test_register_basics;
    Alcotest.test_case "register bounds" `Quick test_register_bounds;
    Alcotest.test_case "register conflicts" `Quick test_register_conflicts;
    Alcotest.test_case "register alloc accounting" `Quick test_register_alloc_accounting;
    Alcotest.test_case "exact table" `Quick test_exact_table;
    Alcotest.test_case "lpm table" `Quick test_lpm_table;
    Alcotest.test_case "ternary table" `Quick test_ternary_table;
    Alcotest.test_case "table kind mismatch" `Quick test_table_kind_mismatch;
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "meter colors" `Quick test_meter_colors;
    Alcotest.test_case "meter long-term rate" `Quick test_meter_long_term_rate;
    Alcotest.test_case "cms never undercounts" `Quick test_cms_never_undercounts;
    QCheck_alcotest.to_alcotest qcheck_cms_overcount_bounded;
    Alcotest.test_case "cms reset" `Quick test_cms_reset;
    Alcotest.test_case "pipeline admission" `Quick test_pipeline_admission_serialisation;
    Alcotest.test_case "pipeline idle accounting" `Quick test_pipeline_idle_accounting;
  ]
