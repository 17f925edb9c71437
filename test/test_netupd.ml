(* The consistent-update layer: versioned policies, the per-switch
   versioned table + agent, the two-phase commit engine's retry /
   abort / rollback paths, and the controller on top. The QCheck
   property at the end is the E26 determinism claim in miniature: the
   same seed must yield byte-identical retry schedules and the same
   final committed version at every shard count. *)

open Alcotest
module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Policy = Netupd.Policy
module Table = Netupd.Table
module Agent = Netupd.Agent
module Commit = Netupd.Commit
module Controller = Netupd.Controller

(* --- Policy --------------------------------------------------------- *)

let n = 8

(* The out-port a switch's rules give [key], if any. *)
let lookup_in tables ~switch ~key =
  List.find_map (fun r -> if r.Policy.key = key then Some r.Policy.port else None) tables.(switch)

let tables_of p = Array.init (Policy.switches p) (Policy.rules p)
let lookup p ~switch ~key = lookup_in (tables_of p) ~switch ~key

(* Walk the ring under the port semantics of per-switch rule [tables]
   from [sw] toward [dst], for at most [n] hops; whether it arrives,
   and the links crossed (ring link l = the edge between l and l+1 mod
   n). *)
let walk tables ~sw ~dst =
  let links = ref [] in
  let cur = ref sw in
  let hops = ref 0 in
  while !cur <> dst && !hops < n do
    (match lookup_in tables ~switch:!cur ~key:dst with
    | Some 1 ->
        links := !cur :: !links;
        cur := (!cur + 1) mod n
    | Some 2 ->
        links := ((!cur + n - 1) mod n) :: !links;
        cur := (!cur + n - 1) mod n
    | _ -> hops := n);
    incr hops
  done;
  (!cur = dst, List.rev !links)

(* The oracle every ring policy is checked with: each (switch,
   destination) pair arrives within [n] hops — no loops, no black
   holes. *)
let ring_delivers_tables tables =
  List.for_all
    (fun sw -> List.for_all (fun dst -> fst (walk tables ~sw ~dst)) (List.init n Fun.id))
    (List.init n Fun.id)

let ring_delivers p = ring_delivers_tables (tables_of p)

let test_ring_uniform () =
  let p = Policy.ring_uniform ~switches:n ~name:"cw" () in
  check bool "delivers" true (ring_delivers p);
  for sw = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if dst <> sw then
        check (option int)
          (Printf.sprintf "sw%d->%d goes clockwise" sw dst)
          (Some 1)
          (lookup p ~switch:sw ~key:dst)
    done
  done

let test_ring_threshold () =
  let p = Policy.ring_threshold ~switches:n ~ccw_at:5 ~name:"split5" () in
  check bool "delivers" true (ring_delivers p);
  (* Distance 4 clockwise stays clockwise; distance 5+ flips. *)
  check (option int) "sw0->4 cw" (Some 1) (lookup p ~switch:0 ~key:4);
  check (option int) "sw0->5 ccw" (Some 2) (lookup p ~switch:0 ~key:5);
  check (option int) "sw3->0 ccw (cw dist 5)" (Some 2) (lookup p ~switch:3 ~key:0);
  (* ccw_at = switches degenerates to the uniform policy. *)
  let u = Policy.ring_threshold ~switches:n ~ccw_at:n ~name:"u" () in
  for sw = 0 to n - 1 do
    for dst = 0 to n - 1 do
      check (option int) "degenerate threshold = uniform"
        (lookup (Policy.ring_uniform ~switches:n ~name:"cw" ()) ~switch:sw ~key:dst)
        (lookup u ~switch:sw ~key:dst)
    done
  done

let test_ring_avoiding () =
  for link = 0 to n - 1 do
    let p = Policy.ring_avoiding ~switches:n ~link ~name:"avoid" () in
    check bool (Printf.sprintf "avoid-l%d delivers" link) true (ring_delivers p);
    for sw = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if dst <> sw then begin
          let ok, links = walk (tables_of p) ~sw ~dst in
          check bool (Printf.sprintf "l%d: sw%d->%d reaches" link sw dst) true ok;
          check bool
            (Printf.sprintf "l%d: sw%d->%d avoids the dead link" link sw dst)
            false (List.mem link links)
        end
      done
    done
  done

let test_cw_crosses () =
  (* The clockwise arc 6 -> 1 crosses links 6, 7, 0 and nothing else:
     only a policy avoiding one of those sends 6 -> 1 counter-clockwise. *)
  List.iter
    (fun l ->
      let p = Policy.ring_avoiding ~switches:n ~link:l ~name:"avoid" () in
      check (option int) (Printf.sprintf "6->1 vs l%d" l)
        (Some (if List.mem l [ 6; 7; 0 ] then 2 else 1))
        (lookup p ~switch:6 ~key:1))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_ring_delivers_rejects_blackhole () =
  (* A policy with no rules anywhere black-holes everything. *)
  check bool "black hole detected" false (ring_delivers_tables (Array.make n []));
  (* A two-switch mutual loop for key 0 never reaches switch 0 from 2. *)
  let tables =
    Array.init n (fun sw ->
        List.filter_map
          (fun dst ->
            if dst = sw then None
            else if sw = 2 && dst = 0 then Some { Policy.key = dst; port = 1 }
            else if sw = 3 && dst = 0 then Some { Policy.key = dst; port = 2 }
            else Some { Policy.key = dst; port = 1 })
          (List.init n Fun.id))
  in
  check bool "loop detected" false (ring_delivers_tables tables)

(* --- Table ---------------------------------------------------------- *)

let test_table () =
  let t = Table.create ~keys:4 () in
  check (list int) "empty" [] (Table.versions t);
  check int "miss is -1" (-1) (Table.lookup t ~version:3 ~key:0);
  Table.install t ~version:3 [ { Policy.key = 0; port = 1 }; { Policy.key = 2; port = 2 } ];
  Table.install t ~version:1 [ { Policy.key = 0; port = 2 } ];
  check (list int) "versions ascend" [ 1; 3 ] (Table.versions t);
  check bool "has 3" true (List.mem 3 (Table.versions t));
  check int "v3 k0" 1 (Table.lookup t ~version:3 ~key:0);
  check int "v3 k1 unruled" (-1) (Table.lookup t ~version:3 ~key:1);
  check int "v1 k0" 2 (Table.lookup t ~version:1 ~key:0);
  (* Idempotent overwrite: re-install replaces the version's rules. *)
  Table.install t ~version:3 [ { Policy.key = 1; port = 2 } ];
  check int "overwritten k0 gone" (-1) (Table.lookup t ~version:3 ~key:0);
  check int "overwritten k1 present" 2 (Table.lookup t ~version:3 ~key:1);
  Table.uninstall t ~version:3;
  Table.uninstall t ~version:3 (* idempotent *);
  check (list int) "v3 removed" [ 1 ] (Table.versions t);
  check int "installs counted" 3 (Table.installs t);
  check int "uninstalls counted (no-op excluded)" 1 (Table.uninstalls t)

(* --- Agent ---------------------------------------------------------- *)

let mk_packet ~ingress_port ~version =
  let pkt =
    Packet.udp_packet
      ~src:(Ipv4_addr.of_octets 10 0 0 1)
      ~dst:(Ipv4_addr.of_octets 10 0 0 2)
      ~src_port:1000 ~dst_port:2000 ~payload_len:64 ()
  in
  pkt.Packet.meta.Packet.ingress_port <- ingress_port;
  pkt.Packet.meta.Packet.version <- version;
  pkt

let test_agent_stamping () =
  let a = Agent.create ~keys:4 ~edge_port:(fun p -> p = 0) () in
  Table.install (Agent.table a) ~version:5 [ { Policy.key = 3; port = 1 } ];
  Table.install (Agent.table a) ~version:6 [ { Policy.key = 3; port = 2 } ];
  Agent.set_ingress_version a 5;
  (* Edge arrival: stamped with the live ingress version. *)
  let pkt = mk_packet ~ingress_port:0 ~version:0 in
  check int "edge forwards under v5" 1 (Agent.decide a pkt ~key:3);
  check int "packet stamped" 5 pkt.Packet.meta.Packet.version;
  check int "stamped counter" 1 (Agent.stamped a);
  (* Fabric arrival mid-update: the carried version wins even though
     the ingress register has moved on. *)
  Agent.set_ingress_version a 6;
  let pkt = mk_packet ~ingress_port:1 ~version:5 in
  check int "fabric keeps carried v5" 1 (Agent.decide a pkt ~key:3);
  check int "no re-stamp" 5 pkt.Packet.meta.Packet.version;
  check int "stamped unchanged" 1 (Agent.stamped a);
  check int "mixed stays zero" 0 (Agent.mixed a);
  check int "forwarded" 2 (Agent.forwarded a)

let test_agent_mixed_and_unroutable () =
  let a = Agent.create ~keys:4 ~edge_port:(fun p -> p = 0) () in
  Table.install (Agent.table a) ~version:6 [ { Policy.key = 3; port = 2 } ];
  Agent.set_ingress_version a 6;
  (* A packet stamped v5 arrives but v5 was already GC'd here: the
     fallback forwards it under v6 — counted as a mixed-version
     forwarding (the safety violation E26 asserts never happens). *)
  let pkt = mk_packet ~ingress_port:1 ~version:5 in
  check int "fallback port" 2 (Agent.decide a pkt ~key:3);
  check int "mixed" 1 (Agent.mixed a);
  check int "unroutable" 0 (Agent.unroutable a);
  (* No fallback either: drop. *)
  let pkt = mk_packet ~ingress_port:1 ~version:5 in
  check int "drop" (-1) (Agent.decide a pkt ~key:1);
  check int "mixed again" 2 (Agent.mixed a);
  check int "unroutable" 1 (Agent.unroutable a)

(* --- Commit --------------------------------------------------------- *)

(* A bare-scheduler harness around the commit engine: submit and ack
   are 2 us one-way delays, the loss oracle is scripted per (switch,
   action), applies are journaled. *)
type harness = {
  sched : Scheduler.t;
  applies : (int * Commit.action) list ref;
  log : Buffer.t;
  stats : Commit.stats;
  env : Commit.env;
}

let mk_harness ?(lose = fun ~switch:_ ~action:_ ~attempt:_ -> false) () =
  let sched = Scheduler.create () in
  let applies = ref [] in
  let log = Buffer.create 256 in
  let stats = Commit.fresh_stats () in
  let seq = ref 0 in
  let attempts = Hashtbl.create 16 in
  (* The engine logs each phase transition before submitting the
     phase's ops, and exactly one phase is ever active, so the current
     action can be tracked from the log — which lets the scripted loss
     oracle (whose interface is only [switch, now]) key on the action
     and the per-op attempt number. *)
  let current_action = ref Commit.Install in
  let note_phase line =
    let tag = "phase=" in
    let tl = String.length tag and ll = String.length line in
    let rec find i =
      if i + tl > ll then None
      else if String.sub line i tl = tag then Some (String.sub line (i + tl) (ll - i - tl))
      else find (i + 1)
    in
    match find 0 with
    | Some "installing" -> current_action := Commit.Install
    | Some "flipping" -> current_action := Commit.Flip
    | Some "unflipping" -> current_action := Commit.Unflip
    | Some "gc" -> current_action := Commit.Gc_old
    | Some "rb-gc" -> current_action := Commit.Gc_new
    | Some _ | None -> ()
  in
  let env =
    {
      Commit.sched;
      submit =
        (fun ~switch:_ f -> Scheduler.post sched ~at:(Scheduler.now sched + Sim_time.us 2) f);
      ack = (fun ~switch:_ f -> Scheduler.post sched ~at:(Scheduler.now sched + Sim_time.us 2) f);
      lost =
        (fun ~switch ~now:_ ->
          let k = (switch, !current_action) in
          let a = (try Hashtbl.find attempts k with Not_found -> 0) + 1 in
          Hashtbl.replace attempts k a;
          lose ~switch ~action:!current_action ~attempt:a);
      apply = (fun ~switch action -> applies := (switch, action) :: !applies);
      log =
        (fun line ->
          note_phase line;
          Buffer.add_string log line;
          Buffer.add_char log '\n');
      next_seq =
        (fun () ->
          incr seq;
          !seq);
      stats;
    }
  in
  { sched; applies; log; stats; env }

let count_applies h action = List.length (List.filter (fun (_, a) -> a = action) !(h.applies))

let run_commit ?lose ~targets () =
  let h = mk_harness ?lose () in
  let outcome = ref None in
  let _t =
    Commit.start h.env (Commit.default_config ()) ~version:2 ~targets
      ~on_done:(fun o -> outcome := Some o)
  in
  Scheduler.run h.sched;
  (h, !outcome)

let test_commit_happy_path () =
  let h, outcome = run_commit ~targets:[| 0; 1; 2 |] () in
  check bool "committed" true (outcome = Some Commit.Committed);
  (* Three forward phases, three switches, no noise. *)
  check int "attempts" 9 h.stats.Commit.attempts;
  check int "acks" 9 h.stats.Commit.acks;
  check int "retries" 0 h.stats.Commit.retries;
  check int "installs" 3 (count_applies h Commit.Install);
  check int "flips" 3 (count_applies h Commit.Flip);
  check int "gc-old" 3 (count_applies h Commit.Gc_old);
  check int "no rollback actions" 0 (count_applies h Commit.Unflip + count_applies h Commit.Gc_new);
  (* Phase order: every install precedes every flip precedes every GC. *)
  let order = List.rev_map snd !(h.applies) in
  let rank = function Commit.Install -> 0 | Flip -> 1 | Gc_old -> 2 | _ -> 99 in
  let sorted =
    let rec go = function
      | a :: (b :: _ as rest) -> rank a <= rank b && go rest
      | _ -> true
    in
    go order
  in
  check bool "install < flip < gc" true sorted

let test_commit_retry_recovers () =
  (* First install attempt to switch 1 is lost; the retry lands. *)
  let lose ~switch ~action ~attempt = switch = 1 && action = Commit.Install && attempt = 1 in
  let h, outcome = run_commit ~lose ~targets:[| 0; 1; 2 |] () in
  check bool "still committed" true (outcome = Some Commit.Committed);
  check int "one loss" 1 h.stats.Commit.lost;
  check int "one retry" 1 h.stats.Commit.retries;
  check int "attempts = 9 + the retry" 10 h.stats.Commit.attempts;
  check int "books: attempts = lost + acks" h.stats.Commit.attempts
    (h.stats.Commit.lost + h.stats.Commit.acks + h.stats.Commit.dup_acks + h.stats.Commit.late_acks);
  check int "install applied exactly once on sw1" 3 (count_applies h Commit.Install)

let test_commit_abort_from_install () =
  (* Switch 2's install never gets through: bounded retries exhaust,
     the update aborts, and — nothing having flipped — rollback is
     pure gc-new on the *other* switches' installed rules. *)
  let lose ~switch ~action ~attempt:_ = switch = 2 && action = Commit.Install in
  let h, outcome = run_commit ~lose ~targets:[| 0; 1; 2 |] () in
  check bool "rolled back" true (outcome = Some Commit.Rolled_back);
  check int "abandoned" 1 h.stats.Commit.abandoned;
  check int "no flips happened" 0 (count_applies h Commit.Flip);
  check int "no unflips needed" 0 (count_applies h Commit.Unflip);
  check int "installs on the healthy switches" 2 (count_applies h Commit.Install);
  check int "gc-new removes them" 3 (count_applies h Commit.Gc_new);
  check int "gc never skipped" 0 h.stats.Commit.gc_skipped;
  (* 1 + max_retries attempts burned on the dead switch. *)
  let cfg = Commit.default_config () in
  check int "loss budget" (1 + cfg.Commit.max_retries) h.stats.Commit.lost

let test_commit_rollback_from_flip () =
  (* Installs all land; switch 0's flip never does. The rollback must
     unflip the flipped ingresses, then gc the new rules. *)
  let lose ~switch ~action ~attempt:_ = switch = 0 && action = Commit.Flip in
  let h, outcome = run_commit ~lose ~targets:[| 0; 1; 2 |] () in
  check bool "rolled back" true (outcome = Some Commit.Rolled_back);
  check int "installs" 3 (count_applies h Commit.Install);
  check int "unflips" 3 (count_applies h Commit.Unflip);
  check int "gc-new" 3 (count_applies h Commit.Gc_new);
  check int "gc never skipped" 0 h.stats.Commit.gc_skipped;
  check bool "log shows the rollback pivot" true
    (let s = Buffer.contents h.log in
     let contains sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains "ROLLBACK from=flipping" && contains "ROLLED_BACK")

let test_commit_unflip_abandon_skips_gc () =
  (* Flip aborts because of switch 0, and then switch 1's unflip is
     also unreachable: the engine abandons it and must NOT gc the new
     rules (switch 1 keeps stamping the new version, so the new tables
     must stay resident network-wide). *)
  let lose ~switch ~action ~attempt:_ =
    (switch = 0 && action = Commit.Flip) || (switch = 1 && action = Commit.Unflip)
  in
  let h, outcome = run_commit ~lose ~targets:[| 0; 1; 2 |] () in
  check bool "rolled back" true (outcome = Some Commit.Rolled_back);
  check int "gc skipped once" 1 h.stats.Commit.gc_skipped;
  check int "no gc-new at all" 0 (count_applies h Commit.Gc_new);
  check int "two abandons (flip + unflip)" 2 h.stats.Commit.abandoned

let test_commit_books_balance_under_noise () =
  (* Random-ish but deterministic loss pattern; whatever the outcome,
     the conservation books must balance once the scheduler drains. *)
  let lose ~switch ~action:_ ~attempt =
    (switch * 7 + attempt * 13) mod 3 = 0 && attempt <= 2
  in
  let h, outcome = run_commit ~lose ~targets:[| 0; 1; 2; 3; 4 |] () in
  check bool "finished" true (outcome <> None);
  check int "attempts = lost + acked (+dup+late)" h.stats.Commit.attempts
    (h.stats.Commit.lost + h.stats.Commit.acks + h.stats.Commit.dup_acks + h.stats.Commit.late_acks);
  check int "applies = acks (lossy channel, reliable device)" h.stats.Commit.acks
    (h.stats.Commit.applied + h.stats.Commit.deduped)

(* --- Controller ----------------------------------------------------- *)

let ring_agents () =
  Array.init n (fun _ -> Some (Agent.create ~keys:n ~edge_port:(fun p -> p = 0) ()))

let mk_controller ?lost ~sched () =
  let agents = ring_agents () in
  let ctrl =
    Controller.create ~sched ~switches:n ~agents
      ~initial:(Policy.with_version (Policy.ring_uniform ~switches:n ~name:"cw" ()) 1)
      ?lost ~seed:4242 ()
  in
  (ctrl, Array.map Option.get agents)

let test_controller_commit () =
  let sched = Scheduler.create () in
  let ctrl, agents = mk_controller ~sched () in
  check int "bootstrap version" 1 (Controller.version ctrl);
  Array.iter
    (fun a ->
      check (list int) "v1 resident" [ 1 ] (Table.versions (Agent.table a));
      check int "ingress at v1" 1 (Agent.ingress_version a))
    agents;
  Scheduler.post sched ~at:(Sim_time.us 10) (fun () ->
      Controller.propose ctrl (Policy.ring_threshold ~switches:n ~ccw_at:5 ~name:"split5" ()));
  Scheduler.run sched;
  check int "committed" 1 (Controller.committed ctrl);
  check int "version advanced" 2 (Controller.version ctrl);
  check (option int) "nothing in flight" None (Controller.in_flight_version ctrl);
  Array.iter
    (fun a ->
      check (list int) "old version GC'd, only v2 left" [ 2 ] (Table.versions (Agent.table a));
      check int "ingress flipped" 2 (Agent.ingress_version a))
    agents;
  check int "mixed stays zero" 0 (Controller.mixed ctrl)

let test_controller_channel () =
  (* Every switch's control channel: 4 us latency plus under 500 ns of
     jitter, and at most one op a microsecond. *)
  let sched = Scheduler.create () in
  let ctrl, _ = mk_controller ~sched () in
  let cp = Controller.cp ctrl 0 in
  check int "latency" (Sim_time.us 4) (Evcore.Control_plane.latency cp);
  let ran = ref [] in
  let op () = ran := Scheduler.now sched :: !ran in
  Scheduler.post sched ~at:(Sim_time.us 10) (fun () ->
      Evcore.Control_plane.submit cp op;
      Evcore.Control_plane.submit cp op);
  Scheduler.run sched;
  match List.rev !ran with
  | [ first; second ] ->
      check bool "first op within [14 us, 14.5 us)" true
        (first >= Sim_time.us 14 && first < Sim_time.us 14 + Sim_time.ns 500);
      check int "second op one op gap later" (first + Sim_time.us 1) second
  | ops -> Alcotest.failf "%d ops ran, expected 2" (List.length ops)

let test_controller_supersede () =
  (* Three proposals in the same instant: the first starts, the second
     parks, the third replaces the parked one. Two updates commit, one
     is superseded, and the final policy is the last proposal's. *)
  let sched = Scheduler.create () in
  let ctrl, _ = mk_controller ~sched () in
  Scheduler.post sched ~at:(Sim_time.us 10) (fun () ->
      Controller.propose ctrl (Policy.ring_threshold ~switches:n ~ccw_at:5 ~name:"a" ());
      Controller.propose ctrl (Policy.ring_threshold ~switches:n ~ccw_at:4 ~name:"b" ());
      Controller.propose ctrl (Policy.ring_threshold ~switches:n ~ccw_at:3 ~name:"c" ()));
  Scheduler.run sched;
  check int "proposals" 3 (Controller.proposals ctrl);
  check int "committed" 2 (Controller.committed ctrl);
  check int "superseded" 1 (Controller.superseded ctrl);
  check string "last proposal wins" "c" (Policy.name (Controller.policy ctrl));
  check int "accounting closes" (Controller.proposals ctrl)
    (Controller.committed ctrl + Controller.rolled_back ctrl + Controller.superseded ctrl)

let test_controller_rollback_restores_old_policy () =
  (* Every op to switch 5 is lost: the install phase aborts and the
     network must end exactly where it started — v1 resident
     everywhere, ingresses at v1, v2's rules gone. *)
  let sched = Scheduler.create () in
  let lost ~switch ~now:_ = switch = 5 in
  let ctrl, agents = mk_controller ~lost ~sched () in
  Scheduler.post sched ~at:(Sim_time.us 10) (fun () ->
      Controller.propose ctrl (Policy.ring_threshold ~switches:n ~ccw_at:5 ~name:"doomed" ()));
  Scheduler.run sched;
  check int "rolled back" 1 (Controller.rolled_back ctrl);
  check int "version unchanged" 1 (Controller.version ctrl);
  Array.iteri
    (fun sw a ->
      check (list int) (Printf.sprintf "sw%d back to v1 only" sw) [ 1 ]
        (Table.versions (Agent.table a));
      check int "ingress still v1" 1 (Agent.ingress_version a))
    agents;
  check int "mixed stays zero" 0 (Controller.mixed ctrl)

(* --- Control-plane metrics (satellites 1 and 2) ---------------------- *)

let test_cp_metrics () =
  let sched = Scheduler.create () in
  let cp =
    Evcore.Control_plane.create ~sched ~latency:(Sim_time.us 4) ~jitter:0
      ~op_rate_per_sec:1e6 ~rng:(Stats.Rng.create ~seed:1) ()
  in
  let ran = ref 0 in
  for _ = 1 to 5 do
    Evcore.Control_plane.submit cp (fun () -> incr ran)
  done;
  check int "pending before run" 5 (Evcore.Control_plane.pending cp);
  Evcore.Control_plane.notify cp (fun () -> ());
  Scheduler.run sched;
  check int "ops ran" 5 !ran;
  check int "cp.ops" 5 (Evcore.Control_plane.ops cp);
  check int "cp.notifications" 1 (Evcore.Control_plane.notifications cp);
  check int "pending drained" 0 (Evcore.Control_plane.pending cp);
  check int "queue HWM" 5 (Evcore.Control_plane.queue_depth_hwm cp);
  let reg = Obs.Metrics.create () in
  Evcore.Control_plane.export_metrics cp reg;
  let read name =
    match Obs.Metrics.find_value reg name with
    | Some (Obs.Metrics.Counter_v v) -> v
    | Some (Obs.Metrics.Gauge_v { last; _ }) -> last
    | _ -> Alcotest.failf "metric %s missing" name
  in
  check int "exported cp.ops" 5 (read "cp.ops");
  check int "exported cp.dropped_ops" 0 (read "cp.dropped_ops");
  check int "exported cp.queue_depth" 5 (read "cp.queue_depth")

let test_cp_dropped_ops () =
  (* A quarantined control channel refuses ops: they are submitted,
     reach their execution time, and are counted dropped — never
     executed, never silently lost. *)
  let sched = Scheduler.create () in
  let sup =
    Resil.Supervisor.create ~sched
      ~config:
        {
          Resil.Supervisor.policy = Resil.Policy.Quarantine;
          base_backoff = Sim_time.ms 10;
          max_backoff = Sim_time.ms 10;
        }
      ~seed:7 ()
  in
  let cp =
    Evcore.Control_plane.create ~sched ~latency:(Sim_time.us 4) ~jitter:0
      ~op_rate_per_sec:1e6 ~sup ~rng:(Stats.Rng.create ~seed:1) ()
  in
  let key = Option.get (Resil.Supervisor.find_key sup ~name:"cp.op") in
  Resil.Supervisor.inject_crash key ~n:1;
  let ran = ref 0 in
  for _ = 1 to 3 do
    Evcore.Control_plane.submit cp (fun () -> incr ran)
  done;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  (* Op 1 crashes (trips the quarantine), ops 2-3 arrive quarantined. *)
  check int "no op completed" 0 !ran;
  check int "cp.ops counts executed only" 0 (Evcore.Control_plane.ops cp);
  check int "cp.dropped_ops" 3 (Evcore.Control_plane.dropped_ops cp)

(* --- QCheck: the E26 determinism property (satellite 3) -------------- *)

module E26 = Experiments.E26_netupd

(* One chaos run of the E26 scenario, truncated to keep the property
   cheap: return every controller replica's schedule digest plus the
   final committed version. *)
let run_digests ~shards ~seed =
  let until = Sim_time.us 300 in
  let cfg, h = E26.scenario ~leg:E26.Chaos ~shards ~record_trace:false ~seed ~until () in
  ignore (Parsim.run cfg (E26.topo ()) : Parsim.result);
  let ctrls = List.sort compare h.E26.controllers in
  ( List.map (fun (_, c) -> Controller.schedule_digest c) ctrls,
    List.map (fun (_, c) -> Controller.version c) ctrls )

let qcheck_determinism =
  QCheck.Test.make ~count:4 ~name:"retry schedules identical across shard counts"
    QCheck.(int_range 0 9999)
    (fun seed ->
      let canon_digests, canon_versions = run_digests ~shards:1 ~seed in
      let canon = List.hd canon_digests and canon_v = List.hd canon_versions in
      List.iter
        (fun shards ->
          let digests, versions = run_digests ~shards ~seed in
          List.iteri
            (fun i d ->
              if d <> canon then
                QCheck.Test.fail_reportf "seed %d: %d-shard replica %d retry schedule diverges"
                  seed shards i)
            digests;
          List.iter
            (fun v ->
              if v <> canon_v then
                QCheck.Test.fail_reportf "seed %d: final version %d <> %d" seed v canon_v)
            versions)
        [ 2; 4 ];
      true)

let suite =
  [
    test_case "ring_uniform is all-clockwise and delivers" `Quick test_ring_uniform;
    test_case "ring_threshold splits at the ccw distance" `Quick test_ring_threshold;
    test_case "ring_avoiding never crosses the dead link" `Quick test_ring_avoiding;
    test_case "cw_crosses identifies the clockwise arc" `Quick test_cw_crosses;
    test_case "ring_delivers rejects black holes and loops" `Quick test_ring_delivers_rejects_blackhole;
    test_case "versioned table: install/overwrite/uninstall" `Quick test_table;
    test_case "agent stamps at the edge, honours carried versions" `Quick test_agent_stamping;
    test_case "agent counts mixed and unroutable packets" `Quick test_agent_mixed_and_unroutable;
    test_case "commit: happy path phases in order" `Quick test_commit_happy_path;
    test_case "commit: a lost op retries and recovers" `Quick test_commit_retry_recovers;
    test_case "commit: install abort rolls back without unflips" `Quick test_commit_abort_from_install;
    test_case "commit: flip abort unflips then collects" `Quick test_commit_rollback_from_flip;
    test_case "commit: abandoned unflip skips the gc (stays safe)" `Quick test_commit_unflip_abandon_skips_gc;
    test_case "commit: conservation books balance under noise" `Quick test_commit_books_balance_under_noise;
    test_case "controller: two-phase commit end to end" `Quick test_controller_commit;
    test_case "controller: control channel latency, jitter and op rate" `Quick
      test_controller_channel;
    test_case "controller: storm parks and supersedes" `Quick test_controller_supersede;
    test_case "controller: rollback restores the old policy" `Quick test_controller_rollback_restores_old_policy;
    test_case "control plane: ops/notifications/queue HWM metrics" `Quick test_cp_metrics;
    test_case "control plane: quarantined ops counted as dropped" `Quick test_cp_dropped_ops;
    QCheck_alcotest.to_alcotest qcheck_determinism;
  ]
