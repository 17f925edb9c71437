(* Tests for the discrete-event simulation engine. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Ladder_queue = Eventsim.Ladder_queue

let test_time_units () =
  Alcotest.(check int) "ns" 1_000 (Sim_time.ns 1);
  Alcotest.(check int) "us" 1_000_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000_000 (Sim_time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000_000 (Sim_time.sec 1);
  Alcotest.(check (float 1e-9)) "to_ns" 1.5 (Sim_time.to_ns 1_500)

let test_tx_time () =
  (* 64B at 10 Gb/s = 51.2 ns *)
  Alcotest.(check int) "64B@10G" (Sim_time.of_ns_float 51.2) (Sim_time.tx_time ~bytes:64 ~gbps:10.);
  (* 1500B at 1 Gb/s = 12 us *)
  Alcotest.(check int) "1500B@1G" (Sim_time.us 12) (Sim_time.tx_time ~bytes:1500 ~gbps:1.)

let test_cycles () =
  Alcotest.(check int) "cycles" 3 (Sim_time.cycles (Sim_time.ns 16) ~cycle:(Sim_time.ns 5))

let test_ladder_ordering () =
  let l = Ladder_queue.create () in
  Ladder_queue.push l ~time:30 ~tag:0 "c";
  Ladder_queue.push l ~time:10 ~tag:0 "a";
  Ladder_queue.push l ~time:20 ~tag:0 "b";
  Alcotest.(check (option int)) "peek" (Some 10) (Ladder_queue.peek_time l);
  let order =
    List.init 3 (fun _ -> match Ladder_queue.pop l with Some (_, x) -> x | None -> "?")
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "empty" true (Ladder_queue.is_empty l)

let test_ladder_fifo_ties () =
  let l = Ladder_queue.create () in
  List.iter (fun x -> Ladder_queue.push l ~time:5 ~tag:0 x) [ 1; 2; 3; 4; 5 ];
  let order =
    List.init 5 (fun _ -> match Ladder_queue.pop l with Some (_, x) -> x | None -> -1)
  in
  Alcotest.(check (list int)) "fifo among equal times" [ 1; 2; 3; 4; 5 ] order

let test_ladder_spans_rungs () =
  (* Times spread over ten orders of magnitude so the first pop spreads
     the top bag across several progressively finer rungs; order must
     still be exact. *)
  let times = [ 3; 300; 30_000; 3_000_000; 300_000_000; 1 lsl 35; (1 lsl 35) + 1 ] in
  let l = Ladder_queue.create () in
  List.iteri (fun i time -> Ladder_queue.push l ~time ~tag:0 i) (List.rev times);
  Alcotest.(check int) "length" (List.length times) (Ladder_queue.length l);
  List.iteri
    (fun expect_i expect_t ->
      match Ladder_queue.pop l with
      | Some (t, i) ->
          Alcotest.(check int) "time order" expect_t t;
          Alcotest.(check int) "payload" (List.length times - 1 - expect_i) i
      | None -> Alcotest.fail "queue emptied early")
    times

let test_ladder_past_push_raises () =
  let l = Ladder_queue.create () in
  Ladder_queue.push l ~time:100 ~tag:0 ();
  ignore (Ladder_queue.pop l);
  Alcotest.(check int) "position advanced" 100 (Ladder_queue.position l);
  Alcotest.check_raises "past push"
    (Invalid_argument "Ladder_queue.push: time=50 is before ladder position 100")
    (fun () -> Ladder_queue.push l ~time:50 ~tag:0 ())

let test_ladder_releases_payloads () =
  (* Free-listed nodes must not pin their old payload after the pop. *)
  let l = Ladder_queue.create () in
  let weak = Weak.create 1 in
  let tracked = Bytes.create 64 in
  Weak.set weak 0 (Some tracked);
  Ladder_queue.push l ~time:7 ~tag:0 tracked;
  Ladder_queue.push l ~time:(1 lsl 40) ~tag:0 (Bytes.create 64);
  ignore (Ladder_queue.pop l);
  ignore (Ladder_queue.pop l);
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check weak 0);
  (* Using the ladder after the collection keeps it reachable through
     it; a dead ladder would free its free list and hide a pin. *)
  Alcotest.(check bool) "ladder empty" true (Ladder_queue.is_empty l)

(* The scheduler's two exits, [take] and [drain_upto], must not pin
   payloads either, once events have passed through rungs, the sort
   scratch and the bottom list: 300 payloads, a dense cluster under a
   far outlier, all collectable once drained. *)
let check_drained_payloads_collected name drain =
  let l = Ladder_queue.create () in
  let weak = Weak.create 300 in
  for i = 0 to 299 do
    let payload = Bytes.create 64 in
    Weak.set weak i (Some payload);
    Ladder_queue.push l ~time:(if i = 0 then 1 lsl 40 else i mod 7) ~tag:0 payload
  done;
  drain l;
  Gc.full_major ();
  Alcotest.(check (list int)) (name ^ ": payloads still pinned") []
    (List.filter (Weak.check weak) (List.init 300 Fun.id));
  Alcotest.(check bool) (name ^ " drained") true (Ladder_queue.is_empty l)

let test_ladder_take_releases_payloads () =
  check_drained_payloads_collected "take" (fun l ->
      while Ladder_queue.next_time l >= 0 do
        ignore (Ladder_queue.take l : Bytes.t)
      done)

let test_ladder_drain_releases_payloads () =
  check_drained_payloads_collected "drain_upto" (fun l ->
      Ladder_queue.drain_upto l ~limit:max_int (fun ~time:_ ~tag:_ _ -> ()))

let test_ladder_drain_reentry () =
  (* Same-instant events pushed from inside the drain callback fire in
     the same drain, after their same-time predecessors. *)
  let log = ref [] in
  let l = Ladder_queue.create () in
  Ladder_queue.push l ~time:10 ~tag:0 `First;
  Ladder_queue.push l ~time:10 ~tag:0 `Second;
  Ladder_queue.drain_upto l ~limit:50 (fun ~time ~tag:_ x ->
      log := (time, x) :: !log;
      if x = `First then begin
        Ladder_queue.push l ~time ~tag:0 `Nested;
        Ladder_queue.push l ~time:200 ~tag:0 `Late
      end);
  Alcotest.(check int) "drained three" 3 (List.length !log);
  Alcotest.(check bool) "order"
    true
    (List.rev !log = [ (10, `First); (10, `Second); (10, `Nested) ]);
  Alcotest.(check (option int)) "late event still queued" (Some 200) (Ladder_queue.peek_time l)

(* The reference the ladder is checked against: a stdlib [Map] keyed by
   (time, push order), the order the ladder promises. It shares no code
   with the ladder. *)
module Reference = struct
  module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  type 'a t = { mutable map : 'a M.t; mutable pushed : int }

  let create () = { map = M.empty; pushed = 0 }
  let length r = M.cardinal r.map
  let is_empty r = M.is_empty r.map

  let push r ~time x =
    r.map <- M.add (time, r.pushed) x r.map;
    r.pushed <- r.pushed + 1

  let pop r =
    match M.min_binding_opt r.map with
    | None -> None
    | Some (((time, _) as key), x) ->
        r.map <- M.remove key r.map;
        Some (time, x)

  let next_time r = match M.min_binding_opt r.map with Some ((time, _), _) -> time | None -> -1
  let take r = match pop r with Some (_, x) -> x | None -> invalid_arg "Reference.take: empty"
end

(* Replay one push/pop program on the ladder and on the reference
   (payload = op index), checking every pop and the lengths, then drain
   both. *)
type queue_op = Push of int | Pop

let pushes n f = List.init n (fun i -> Push (f i))
let pops n = List.init n (fun _ -> Pop)

let check_ladder_against_reference name ops =
  let r = Reference.create () and l = Ladder_queue.create () in
  let pop_both i =
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "%s: pop at op %d" name i)
      (Reference.pop r) (Ladder_queue.pop l)
  in
  List.iteri
    (fun i op ->
      (match op with
      | Push time ->
          Reference.push r ~time i;
          Ladder_queue.push l ~time ~tag:0 i
      | Pop -> pop_both i);
      Alcotest.(check int) (name ^ ": length") (Reference.length r) (Ladder_queue.length l))
    ops;
  while not (Reference.is_empty r) do
    pop_both (-1)
  done;
  Alcotest.(check bool) (name ^ ": ladder drained too") true (Ladder_queue.is_empty l)

(* Same-time events parked far ahead keep push order behind a nearer
   event pushed after them. *)
let test_ladder_far_future_fifo () =
  check_ladder_against_reference "far ties" (pushes 3 (fun _ -> (1 lsl 34) + 17) @ [ Push 5 ])

(* A same-instant burst larger than a bucket cannot be subdivided: it is
   sorted into bottom whole, and ties pushed mid-drain queue behind it. *)
let test_ladder_same_instant_burst () =
  check_ladder_against_reference "burst"
    ((Push 0 :: pushes 500 (fun _ -> 1_000)) @ pops 101 @ pushes 50 (fun _ -> 1_000))

(* Below rung 0's consumed edge, pushes go straight into the sorted
   bottom list, which is respread as a new rung whenever it outgrows its
   cap: 300 descending pushes do so three times. *)
let test_ladder_bottom_spawn () =
  check_ladder_against_reference "bottom spawn"
    ([ Push 0; Push 1_000_000; Pop ]
    @ pushes 300 (fun i -> 15_000 - (37 * i))
    @ pops 50
    @ pushes 100 (fun i -> 6_000 + (3 * i)))

(* Enough descending pushes to fill the rung stack; from then on the
   bottom list just grows. *)
let test_ladder_rung_cap () =
  check_ladder_against_reference "rung cap"
    ([ Push 0; Push 1_000_000; Pop ] @ pushes 2_000 (fun i -> 15_000 - (7 * i)))

(* A dense two-instant cluster under a far outlier nests rung after rung
   of finer width until the width reaches one picosecond. *)
let test_ladder_deep_rungs () =
  check_ladder_against_reference "deep rungs"
    ((Push (1 lsl 50) :: pushes 600 (fun i -> i mod 2))
    @ [ Push (1 lsl 20); Pop; Push 1; Pop; Push 1 ]
    @ pops 10
    @ [ Push (1 lsl 20); Push (1 lsl 50) ])

(* Emptying the ladder leaves its spent rung behind: the rung over
   [b+50_000, b+99_000] consumed bucket 63 last, so its span ends at
   b+99_024. Once a refill restarts the top bag at b+99_500, a push in
   between must not land in the spent rung, behind its consumed
   buckets. *)
let test_ladder_restart_after_empty () =
  let cycle c =
    let b = c * 100_000 in
    [ Push (b + 50_000); Push (b + 100); Push (b + 99_000); Pop; Push (b + 100); Push (b + 150) ]
    @ pops 4
    @ [ Push (b + 99_500); Push (b + 99_030); Push (b + 99_000) ]
    @ pops 3
  in
  check_ladder_against_reference "restart" (List.concat (List.init 5 cycle))

(* A bottom respread into a rung must cover up to the consumed edge it
   took over (15_625), not just to its own latest time (10_000): these
   97 pushes span exactly 1_024 ps, so a rung fitted to them would
   consume 10_000 in its last bucket and strand a later push in
   between. *)
let test_ladder_spawned_rung_covers_gap () =
  check_ladder_against_reference "spawned rung gap"
    ([ Push 0; Push 1_000_000; Pop ]
    @ pushes 96 (fun k -> 10_000 - (10 * k))
    @ (Push 8_977 :: pops 97)
    @ [ Push 12_000; Push 14_000 ])

(* drain_upto fires exactly the events at or before [limit] and parks
   the position at the last one fired, so a push between it and the
   limit fires on the next drain. *)
let test_ladder_drain_upto_limit () =
  let l = Ladder_queue.create () in
  List.iter (fun time -> Ladder_queue.push l ~time ~tag:0 ()) [ 30; 10; 5; 20; 10 ];
  let fired = ref [] in
  let drain limit =
    Ladder_queue.drain_upto l ~limit (fun ~time ~tag:_ () -> fired := time :: !fired)
  in
  drain 4;
  Alcotest.(check (list int)) "nothing before the first event" [] !fired;
  drain 15;
  Alcotest.(check (list int)) "events up to the limit" [ 10; 10; 5 ] !fired;
  Alcotest.(check int) "position at the last fired" 10 (Ladder_queue.position l);
  Ladder_queue.push l ~time:12 ~tag:0 ();
  drain 25;
  Alcotest.(check (list int)) "late push in order" [ 20; 12; 10; 10; 5 ] !fired;
  Alcotest.(check (option int)) "beyond the limit stays" (Some 30) (Ladder_queue.peek_time l)

let test_next_time_take_agree () =
  (* next_time/take is the allocation-free peek/pop pair the scheduler
     hot path uses; on the ladder it must agree with the reference,
     report -1 on empty, and raise on an empty take. *)
  let r = Reference.create () and l = Ladder_queue.create () in
  Alcotest.(check int) "reference empty" (-1) (Reference.next_time r);
  Alcotest.(check int) "ladder empty" (-1) (Ladder_queue.next_time l);
  List.iter
    (fun (time, x) ->
      Reference.push r ~time x;
      Ladder_queue.push l ~time ~tag:(String.length x) x)
    [ (20, "b"); (10, "a"); (10, "a2"); (30, "c") ];
  Alcotest.(check int) "next_tag is the earliest event's" 1 (Ladder_queue.next_tag l);
  let drain name next take =
    let order =
      List.init 4 (fun _ ->
          let tm = next () in
          Alcotest.(check bool) (name ^ " next_time nonnegative") true (tm >= 0);
          take tm)
    in
    Alcotest.(check (list string)) (name ^ " take order") [ "a"; "a2"; "b"; "c" ] order;
    Alcotest.(check int) (name ^ " drained") (-1) (next ())
  in
  drain "reference" (fun () -> Reference.next_time r) (fun _ -> Reference.take r);
  drain "ladder" (fun () -> Ladder_queue.next_time l) (fun _ -> Ladder_queue.take l);
  Alcotest.check_raises "ladder empty take"
    (Invalid_argument "Ladder_queue.take: empty queue") (fun () -> ignore (Ladder_queue.take l));
  Alcotest.check_raises "ladder empty next_tag"
    (Invalid_argument "Ladder_queue.next_tag: empty queue") (fun () ->
      ignore (Ladder_queue.next_tag l))

(* Property: the ladder agrees with the reference on every pop under
   random interleavings of pushes and pops: its adaptive rung spreading
   must reproduce the exact (time, push order) pop sequence, ties
   included, with times spread from same-instant bursts to far
   parking. *)
let qcheck_ladder_matches_reference =
  QCheck.Test.make ~name:"ladder pops exactly match reference (order and ties)" ~count:300
    QCheck.(pair small_int (int_bound 300))
    (fun (seed, nops) ->
      let rng = Stats.Rng.create ~seed in
      let r = Reference.create () in
      let l = Ladder_queue.create () in
      let seq = ref 0 in
      let floor = ref 0 in
      let ok = ref true in
      for _ = 1 to nops do
        if Stats.Rng.int rng 3 < 2 then begin
          let delta =
            match Stats.Rng.int rng 4 with
            | 0 -> Stats.Rng.int rng 4
            | 1 -> Stats.Rng.int rng 1000
            | 2 -> Stats.Rng.int rng 100_000_000
            | _ -> (1 lsl 33) + Stats.Rng.int rng 1000
          in
          let time = !floor + delta in
          Reference.push r ~time !seq;
          Ladder_queue.push l ~time ~tag:0 !seq;
          incr seq
        end
        else begin
          (match (Reference.pop r, Ladder_queue.pop l) with
          | Some (rt, rx), Some (lt, lx) ->
              if rt <> lt || rx <> lx then ok := false;
              floor := max !floor rt
          | None, None -> ()
          | _ -> ok := false);
          if Reference.length r <> Ladder_queue.length l then ok := false
        end
      done;
      let continue = ref true in
      while !ok && !continue do
        match (Reference.pop r, Ladder_queue.pop l) with
        | Some (rt, rx), Some (lt, lx) -> if rt <> lt || rx <> lx then ok := false
        | None, None -> continue := false
        | _ -> ok := false
      done;
      !ok)

(* Property: the hold model, the scheduler's own steady state: each step
   takes the earliest event and queues a successor a random increment
   later. Through next_time/take the ladder must match the reference pop
   for pop, whether increments are mostly ties, uniform, near/far bimodal or
   log-uniform up to 2^40 ps. *)
let qcheck_ladder_hold_model =
  QCheck.Test.make ~name:"ladder matches reference under the hold model" ~count:200
    QCheck.(triple small_int (int_range 1 400) (int_range 0 3))
    (fun (seed, population, dist) ->
      let rng = Stats.Rng.create ~seed in
      let increment () =
        match dist with
        | 0 -> Stats.Rng.int rng 4
        | 1 -> Stats.Rng.int rng 10_000
        | 2 when Stats.Rng.int rng 10 = 0 -> (1 lsl 33) + Stats.Rng.int rng 1000
        | 2 -> Stats.Rng.int rng 100
        | _ -> 1 lsl Stats.Rng.int rng 40
      in
      let r = Reference.create () and l = Ladder_queue.create () in
      let id = ref 0 in
      (* Each node's tag is a function of its payload, so a tag that
         parted from its payload in a rung or the sort shows. *)
      let push time =
        Reference.push r ~time !id;
        Ladder_queue.push l ~time ~tag:(!id * 7) !id;
        incr id
      in
      for _ = 1 to population do
        push (increment ())
      done;
      let rec hold n =
        n = 0
        ||
        let lt = Ladder_queue.next_time l in
        match Reference.pop r with
        | Some (rt, rx)
          when lt = rt && Ladder_queue.next_tag l = rx * 7 && Ladder_queue.take l = rx ->
            push (rt + increment ());
            hold (n - 1)
        | _ -> false
      in
      hold 2_000)

(* Property: windowed draining with reentrant pushes, as in every
   scheduler [run] and parsim window. drain_upto at rising limits, with
   callbacks queueing follow-ups at the firing instant, later, or 2^33 ps
   ahead (a function of the firing id, so both sides queue the same),
   fires exactly what the reference pops up to each limit. *)
let qcheck_ladder_drain_matches_reference =
  QCheck.Test.make ~name:"ladder drain_upto matches reference (reentrant pushes)" ~count:200
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let rng = Stats.Rng.create ~seed in
      let initial = List.init n (fun _ -> Stats.Rng.int rng 5_000) in
      let limits =
        List.sort compare (List.init 6 (fun _ -> Stats.Rng.int rng 20_000)) @ [ 1 lsl 35 ]
      in
      let children id =
        match id mod 4 with
        | _ when id >= 3 * n -> []
        | 0 -> [ 0 ]
        | 1 -> [ 1 + (id * 37 mod 500) ]
        | 2 -> [ 0; 1 lsl 33 ]
        | _ -> []
      in
      let replay push drain =
        let next_id = ref 0 and fired = ref [] in
        let push_next time =
          push ~time !next_id;
          incr next_id
        in
        List.iter push_next initial;
        List.iter
          (fun limit ->
            drain limit (fun ~time id ->
                fired := (time, id) :: !fired;
                List.iter (fun d -> push_next (time + d)) (children id)))
          limits;
        !fired
      in
      let l = Ladder_queue.create () and r = Reference.create () in
      let rec reference_drain limit f =
        let time = Reference.next_time r in
        if time >= 0 && time <= limit then begin
          f ~time (Reference.take r);
          reference_drain limit f
        end
      in
      let tags_ok = ref true in
      let ladder =
        replay
          (fun ~time id -> Ladder_queue.push l ~time ~tag:(id * 3) id)
          (fun limit f ->
            Ladder_queue.drain_upto l ~limit (fun ~time ~tag id ->
                if tag <> id * 3 then tags_ok := false;
                f ~time id))
      in
      ladder = replay (Reference.push r) reference_drain
      && !tags_ok
      && Ladder_queue.length l = Reference.length r)

(* The scheduler-level firing contract, checked against a model that
   shares no code with the scheduler: a random program of schedule /
   post / every / cancel is replayed on a scheduler and on a sorted
   list of (time, order) firings, where [order] counts enqueues —
   live events fire by (time, schedule order), and an [every] re-enqueues
   after each firing, behind everything already queued. Both must fire
   the same (time, id) sequence and agree on the pending/executed
   counters and the final clock. *)
let qcheck_scheduler_matches_model =
  QCheck.Test.make ~name:"scheduler fires like a sorted-list model (schedule/post/every/cancel)"
    ~count:150
    QCheck.(pair small_int (int_bound 80))
    (fun (seed, n) ->
      let until = 60 in
      let replay_scheduler () =
        let rng = Stats.Rng.create ~seed in
        let sched = Scheduler.create () in
        let fired = ref [] in
        let handles = ref [] in
        for i = 0 to n - 1 do
          let record id () = fired := (Scheduler.now sched, id) :: !fired in
          (match Stats.Rng.int rng 4 with
          | 0 ->
              let at = Stats.Rng.int rng 12 in
              handles := Scheduler.schedule sched ~at (record i) :: !handles
          | 1 ->
              let at = Stats.Rng.int rng 12 in
              Scheduler.post sched ~at (record i)
          | 2 ->
              let period = 1 + Stats.Rng.int rng 5 in
              handles := Scheduler.every sched ~period (record i) :: !handles
          | _ ->
              if !handles <> [] then
                Scheduler.cancel
                  (List.nth !handles (Stats.Rng.int rng (List.length !handles))));
          ignore (Stats.Rng.int rng 2)
        done;
        let pending_before = Scheduler.pending sched in
        Scheduler.run ~until sched;
        (List.rev !fired, pending_before, Scheduler.executed sched, Scheduler.now sched)
      in
      let replay_model () =
        let rng = Stats.Rng.create ~seed in
        (* Queued entries (time, order, id, period); a handle's
           cancellation is keyed by its id. *)
        let queue = ref [] and order = ref 0 and cancelled = ref [] and handles = ref [] in
        let enqueue ~time ~id ~period =
          queue := (time, !order, id, period) :: !queue;
          incr order
        in
        for i = 0 to n - 1 do
          (match Stats.Rng.int rng 4 with
          | 0 ->
              enqueue ~time:(Stats.Rng.int rng 12) ~id:i ~period:0;
              handles := i :: !handles
          | 1 -> enqueue ~time:(Stats.Rng.int rng 12) ~id:i ~period:0
          | 2 ->
              let period = 1 + Stats.Rng.int rng 5 in
              enqueue ~time:period ~id:i ~period;
              handles := i :: !handles
          | _ ->
              if !handles <> [] then begin
                let victim = List.nth !handles (Stats.Rng.int rng (List.length !handles)) in
                cancelled := victim :: !cancelled
              end);
          ignore (Stats.Rng.int rng 2)
        done;
        let live (_, _, id, _) = not (List.mem id !cancelled) in
        let pending_before = List.length (List.filter live !queue) in
        let fired = ref [] in
        let rec loop () =
          match List.sort compare (List.filter live !queue) with
          | (time, _, id, period) :: _ when time <= until ->
              queue := List.filter (fun (_, _, i, _) -> i <> id) !queue;
              fired := (time, id) :: !fired;
              if period > 0 then enqueue ~time:(time + period) ~id ~period;
              loop ()
          | _ -> ()
        in
        loop ();
        (List.rev !fired, pending_before, List.length !fired, until)
      in
      replay_scheduler () = replay_model ())

let test_post_from_posted_callback () =
  (* A post made from inside a posted callback (the self-rescheduling
     pattern) must be safe and keep counters exact. *)
  let sched = Scheduler.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Scheduler.post_after sched ~delay:10 tick
  in
  Scheduler.post sched ~at:0 tick;
  Scheduler.post sched ~at:0 (fun () -> incr count);
  Scheduler.run sched;
  (* tick at 0 then rescheduled at 10/20/30 (stopping at 5 counting the
     same-instant anonymous post, which runs second). *)
  Alcotest.(check int) "all firings ran" 5 !count;
  Alcotest.(check int) "executed counter" 5 (Scheduler.executed sched);
  Alcotest.(check int) "nothing pending" 0 (Scheduler.pending sched);
  Alcotest.check_raises "past post raises"
    (Invalid_argument "Scheduler.post: at=1 is before now=30") (fun () ->
      Scheduler.post sched ~at:1 (fun () -> ()))

(* The event hot path — post into a warm scheduler, step it — must be
   allocation-free. The ladder node that carries the closure and its
   class tag comes from the ladder's free list, and step peeks/takes
   without building options or tuples, so a steady-state cycle touches
   the minor heap not at all.
   With [queued] events standing (the hold model), steady state also
   consumes buckets, spawns rungs and sorts them into bottom, all on
   recycled rung frames and sort scratch. *)
let test_scheduler_zero_alloc ~queued () =
  let sched = Scheduler.create () in
  let cb () = () in
  let rng = Stats.Rng.create ~seed:3 in
  let gaps = Array.init 4096 (fun _ -> if queued = 0 then 1 else 1 + Stats.Rng.int rng 5_000) in
  Array.iteri (fun i gap -> if i < queued then Scheduler.post sched ~at:gap cb) gaps;
  let k = ref 0 in
  Zero_alloc.check "post/step" ~iters:20_000 (fun () ->
      Scheduler.post sched ~at:(Scheduler.now sched + Array.unsafe_get gaps (!k land 4095)) cb;
      incr k;
      ignore (Scheduler.step sched : bool));
  Alcotest.(check int) "population steady" queued (Scheduler.pending sched)

let test_run_until_then_schedule () =
  (* Regression for the queue-position/clock invariant: [run ~until]
     moves the clock past the last event without moving the queue's
     position, so a later schedule at [now] must still be accepted and
     fire — including across the 2^32 ps boundary. *)
  let sched = Scheduler.create () in
  let log = ref [] in
  Scheduler.post sched ~at:10 (fun () -> log := 10 :: !log);
  Scheduler.run ~until:(5 * (1 lsl 32)) sched;
  Alcotest.(check int) "clock at until" (5 * (1 lsl 32)) (Scheduler.now sched);
  Scheduler.post sched ~at:(Scheduler.now sched) (fun () ->
      log := Scheduler.now sched :: !log);
  Scheduler.post_after sched ~delay:7 (fun () -> log := Scheduler.now sched :: !log);
  Scheduler.run sched;
  Alcotest.(check (list int))
    "events across the gap fire"
    [ 10; 5 * (1 lsl 32); (5 * (1 lsl 32)) + 7 ]
    (List.rev !log)

(* [step] runs exactly the earliest event and moves the clock to it; on
   an empty queue it reports false and leaves the clock alone. *)
let test_step_runs_one_event () =
  let sched = Scheduler.create () in
  let log = ref [] in
  List.iter (fun t -> Scheduler.post sched ~at:t (fun () -> log := t :: !log)) [ 30; 10; 20 ];
  Alcotest.(check bool) "ran one" true (Scheduler.step sched);
  Alcotest.(check (pair (list int) int)) "earliest, clock at it" ([ 10 ], 10)
    (!log, Scheduler.now sched);
  while Scheduler.step sched do
    ()
  done;
  Alcotest.(check (list int)) "the rest in order" [ 30; 20; 10 ] !log;
  Alcotest.(check bool) "empty" false (Scheduler.step sched);
  Alcotest.(check int) "clock kept" 30 (Scheduler.now sched)

(* next_time feeds the adaptive horizon: the earliest queued timestamp,
   a cancelled event included (a conservative lower bound on the next
   live event), and -1 when empty. *)
let test_next_time_lower_bound () =
  let sched = Scheduler.create () in
  Alcotest.(check int) "empty" (-1) (Scheduler.next_time sched);
  let h = Scheduler.schedule sched ~at:40 (fun () -> ()) in
  Scheduler.post sched ~at:70 (fun () -> ());
  Scheduler.cancel h;
  Alcotest.(check int) "cancelled event still bounds" 40 (Scheduler.next_time sched);
  Scheduler.drain_until_horizon sched ~horizon:50;
  Alcotest.(check int) "next live event" 70 (Scheduler.next_time sched);
  Alcotest.(check int) "nothing ran" 0 (Scheduler.executed sched);
  Scheduler.run sched;
  Alcotest.(check int) "drained" (-1) (Scheduler.next_time sched)

(* Property: cutting a run into [run ~until] slices changes nothing.
   Each slice parks the clock at its [until] without moving the queue;
   callbacks that queue follow-ups (at the same instant or later) fire
   as in one uninterrupted run. *)
let qcheck_sliced_run =
  QCheck.Test.make ~name:"run ~until in slices fires like one run" ~count:150
    QCheck.(triple small_int (int_range 1 60) (int_range 1 25))
    (fun (seed, n, slice) ->
      let horizon = 100 in
      let replay cuts =
        let rng = Stats.Rng.create ~seed in
        let sched = Scheduler.create () in
        let fired = ref [] in
        let rec record id depth () =
          fired := (Scheduler.now sched, id, depth) :: !fired;
          if depth < 2 then
            Scheduler.post_after sched ~delay:(((id * 13) + depth) mod 7) (record id (depth + 1))
        in
        for i = 0 to n - 1 do
          match Stats.Rng.int rng 3 with
          | 0 -> Scheduler.post sched ~at:(Stats.Rng.int rng horizon) (record i 0)
          | 1 -> ignore (Scheduler.schedule sched ~at:(Stats.Rng.int rng horizon) (record i 0))
          | _ -> ignore (Scheduler.every sched ~period:(1 + Stats.Rng.int rng 30) (record i 2))
        done;
        List.iter (fun until -> Scheduler.run ~until sched) cuts;
        (!fired, Scheduler.executed sched, Scheduler.pending sched, Scheduler.now sched)
      in
      replay [ horizon ]
      = replay (List.init ((horizon / slice) + 1) (fun k -> min horizon ((k + 1) * slice))))

(* Profiling counts executed callbacks per class (cancelled ones never
   count) and gauges the live queue depth; the gauge's max and the
   lifetime high-water mark both see the peak, which firing and
   cancelling never lower. A class none of whose events fired has no
   series at all. *)
let test_set_metrics_counts_classes () =
  let module M = Obs.Metrics in
  let sched = Scheduler.create () in
  let reg = M.create () in
  let labels = [ ("shard", "0") ] in
  Scheduler.set_metrics ~wall:false ~labels sched reg;
  for i = 1 to 3 do
    Scheduler.post ~cls:Scheduler.Tm_tx sched ~at:i (fun () -> ())
  done;
  let h = Scheduler.schedule ~cls:Scheduler.Timer sched ~at:5 (fun () -> ()) in
  ignore (Scheduler.schedule ~cls:Scheduler.Timer sched ~at:6 (fun () -> ()));
  Scheduler.cancel h;
  let p = Scheduler.every sched ~period:4 (fun () -> ()) in
  Scheduler.post sched ~at:10 (fun () -> Scheduler.cancel p);
  (* Cancelled before they fire. *)
  Scheduler.cancel (Scheduler.schedule_after ~cls:Scheduler.Fault sched ~delay:7 (fun () -> ()));
  Scheduler.cancel (Scheduler.every ~cls:Scheduler.Control sched ~period:2 (fun () -> ()));
  (* Cancels itself from its own callback: fires once. *)
  let self = ref None in
  self :=
    Some
      (Scheduler.every ~cls:Scheduler.Pktgen sched ~start:9 ~period:3 (fun () ->
           Option.iter Scheduler.cancel !self));
  Scheduler.run sched;
  let series reg =
    List.filter_map
      (fun (s : M.sample) ->
        match s.M.value with
        | M.Counter_v n when s.M.name = "scheduler.callbacks" ->
            Some (List.assoc "class" s.M.labels, n)
        | _ -> None)
      (M.snapshot reg)
  in
  Alcotest.(check (list (pair string int)))
    "callback, periodic (t=4, 8), pktgen, timer, tm.tx; no fault or control series"
    [ ("callback", 1); ("periodic", 2); ("pktgen", 1); ("timer", 1); ("tm.tx", 3) ]
    (series reg);
  Alcotest.(check int) "nothing pending" 0 (Scheduler.pending sched);
  Alcotest.(check int) "high-water mark" 7 (Scheduler.queue_depth_hwm sched);
  (match M.find_value reg ~labels "scheduler.queue_depth" with
  | Some (M.Gauge_v { max; _ }) -> Alcotest.(check int) "gauge max" 7 max
  | _ -> Alcotest.fail "queue depth gauge not registered");
  (* Every class counts under the label string its series has always
     carried. The match is exhaustive, so a new class cannot go
     unpinned. *)
  let label : Scheduler.cls -> string = function
    | Callback -> "callback"
    | Periodic -> "periodic"
    | Workload -> "workload"
    | Link -> "link"
    | Xlink -> "xlink"
    | Merger_admit -> "merger.admit"
    | Switch_decision -> "switch.decision"
    | Tm_tx -> "tm.tx"
    | Timer -> "timer"
    | Pktgen -> "pktgen"
    | Control -> "control"
    | Fault -> "fault"
    | Netupd -> "netupd"
    | Efsm_sweep -> "pisa.efsm.sweep"
    | Resil_backoff -> "resil.backoff"
    | Resil_invariant -> "resil.invariant"
  in
  let all =
    Scheduler.
      [
        Callback; Periodic; Workload; Link; Xlink; Merger_admit; Switch_decision; Tm_tx; Timer;
        Pktgen; Control; Fault; Netupd; Efsm_sweep; Resil_backoff; Resil_invariant;
      ]
  in
  let sched = Scheduler.create () in
  let reg = M.create () in
  Scheduler.set_metrics ~wall:false sched reg;
  List.iteri (fun i cls -> Scheduler.post ~cls sched ~at:i (fun () -> ())) all;
  Scheduler.run sched;
  Alcotest.(check (list (pair string int)))
    "one series per class, under its label"
    (List.sort compare (List.map (fun cls -> (label cls, 1)) all))
    (series reg);
  Alcotest.(check int) "16 distinct labels" 16
    (List.length (List.sort_uniq compare (List.map label all)))

let test_zero_event_run_records_no_wall () =
  (* Satellite: a [run ~until] that dispatches nothing must not observe
     a wall/sim sample (it would only measure Sys.time granularity). *)
  let module M = Obs.Metrics in
  let sched = Scheduler.create () in
  let reg = M.create () in
  Scheduler.set_metrics sched reg;
  Scheduler.run ~until:(Sim_time.ms 1) sched;
  (match M.find_value reg "scheduler.wall_s_per_sim_s" with
  | Some (M.Summary_v { count; _ }) ->
      Alcotest.(check int) "no samples from empty run" 0 count
  | _ -> Alcotest.fail "wall summary not registered");
  (* A run that does dispatch work records exactly one sample. *)
  Scheduler.post sched ~at:(Sim_time.ms 2) (fun () -> ());
  Scheduler.run ~until:(Sim_time.ms 3) sched;
  match M.find_value reg "scheduler.wall_s_per_sim_s" with
  | Some (M.Summary_v { count; _ }) ->
      Alcotest.(check int) "one sample from real run" 1 count
  | _ -> Alcotest.fail "wall summary not registered"

(* Property: under any random interleaving of pushes and pops, every
   ladder pop returns exactly what a reference model says — the
   minimum-time element of the current contents, breaking time ties by
   insertion (schedule) order. The model is a plain list, independent
   of [Reference]. The interleaving is driven by a seeded Stats.Rng so
   failures replay exactly. *)
let qcheck_ladder_interleaved =
  QCheck.Test.make ~name:"ladder interleaved push/pop: min-time, FIFO on ties" ~count:300
    QCheck.(pair small_int (int_bound 200))
    (fun (seed, nops) ->
      let rng = Stats.Rng.create ~seed in
      let l = Ladder_queue.create () in
      let seq = ref 0 in
      (* Reference model: the multiset of live (time, seq) pairs. *)
      let model = ref [] in
      let ok = ref true in
      let check_pop () =
        let expected =
          match List.sort compare !model with [] -> None | min :: _ -> Some min
        in
        let got = Ladder_queue.pop l in
        (match (got, expected) with
        | Some (t, s), Some (et, es) when t = et && s = es ->
            model := List.filter (( <> ) (et, es)) !model
        | None, None -> ()
        | _ -> ok := false);
        match (got, Ladder_queue.peek_time l) with
        | Some (t, _), Some next when next < t -> ok := false
        | _ -> ()
      in
      for _ = 1 to nops do
        if Stats.Rng.int rng 3 < 2 then begin
          (* Few distinct times ahead of the position so ties are
             common. *)
          let time = Ladder_queue.position l + Stats.Rng.int rng 8 in
          Ladder_queue.push l ~time ~tag:0 !seq;
          model := (time, !seq) :: !model;
          incr seq
        end
        else check_pop ()
      done;
      (* Drain the rest: the model must agree to the end. *)
      while !ok && (not (Ladder_queue.is_empty l) || !model <> []) do
        check_pop ()
      done;
      !ok)

(* Property: under random interleavings of schedule/cancel against the
   scheduler, cancelled callbacks never run, live callbacks run in
   non-decreasing time with FIFO ties, and [pending] counts exactly the
   live (non-cancelled) events. *)
let qcheck_scheduler_interleaved =
  QCheck.Test.make ~name:"scheduler schedule/cancel: cancelled never run, order kept"
    ~count:200
    QCheck.(pair small_int (int_bound 60))
    (fun (seed, n) ->
      let rng = Stats.Rng.create ~seed in
      let sched = Scheduler.create () in
      let ran = ref [] in
      let handles = ref [] in
      let cancelled = ref [] in
      for i = 0 to n - 1 do
        let at = Stats.Rng.int rng 10 in
        let h = Scheduler.schedule sched ~at (fun () -> ran := (at, i) :: !ran) in
        handles := (h, i) :: !handles;
        (* Cancel a random earlier-or-current handle about a third of
           the time (double-cancel included on purpose). *)
        if Stats.Rng.int rng 3 = 0 then begin
          let victims = !handles in
          let vh, vi = List.nth victims (Stats.Rng.int rng (List.length victims)) in
          Scheduler.cancel vh;
          if not (List.mem vi !cancelled) then cancelled := vi :: !cancelled
        end
      done;
      let live = n - List.length !cancelled in
      let pending_ok = Scheduler.pending sched = live in
      Scheduler.run sched;
      let ran = List.rev !ran in
      let none_cancelled_ran =
        List.for_all (fun (_, i) -> not (List.mem i !cancelled)) ran
      in
      let all_live_ran = List.length ran = live in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      pending_ok && none_cancelled_ran && all_live_ran && ordered ran
      && Scheduler.pending sched = 0)

let test_pending_excludes_cancelled () =
  let sched = Scheduler.create () in
  let handles =
    List.init 5 (fun i -> Scheduler.schedule sched ~at:(10 * (i + 1)) (fun () -> ()))
  in
  Alcotest.(check int) "all pending" 5 (Scheduler.pending sched);
  Scheduler.cancel (List.nth handles 1);
  Scheduler.cancel (List.nth handles 3);
  Alcotest.(check int) "cancelled excluded" 3 (Scheduler.pending sched);
  (* Cancelling twice must not double-count. *)
  Scheduler.cancel (List.nth handles 1);
  Alcotest.(check int) "double cancel is idempotent" 3 (Scheduler.pending sched);
  Scheduler.run sched;
  Alcotest.(check int) "drained" 0 (Scheduler.pending sched);
  Alcotest.(check int) "only live ones executed" 3 (Scheduler.executed sched)

let test_scheduler_order () =
  let sched = Scheduler.create () in
  let log = ref [] in
  ignore (Scheduler.schedule sched ~at:20 (fun () -> log := "b" :: !log));
  ignore (Scheduler.schedule sched ~at:10 (fun () -> log := "a" :: !log));
  ignore (Scheduler.schedule sched ~at:30 (fun () -> log := "c" :: !log));
  Scheduler.run sched;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Scheduler.now sched)

let test_scheduler_cancel () =
  let sched = Scheduler.create () in
  let ran = ref false in
  let h = Scheduler.schedule sched ~at:10 (fun () -> ran := true) in
  Scheduler.cancel h;
  Scheduler.run sched;
  Alcotest.(check bool) "cancelled did not run" false !ran

let test_scheduler_past_raises () =
  let sched = Scheduler.create () in
  ignore (Scheduler.schedule sched ~at:100 (fun () -> ()));
  Scheduler.run sched;
  Alcotest.check_raises "past" (Invalid_argument "Scheduler.schedule: at=50 is before now=100")
    (fun () -> ignore (Scheduler.schedule sched ~at:50 (fun () -> ())))

let test_every_past_start_raises () =
  (* Regression: [every ?start] used to bypass the past-guard that
     [schedule] enforces, silently corrupting the clock. *)
  let sched = Scheduler.create () in
  ignore (Scheduler.schedule sched ~at:100 (fun () -> ()));
  Scheduler.run sched;
  Alcotest.check_raises "stale start"
    (Invalid_argument "Scheduler.every: start=50 is before now=100") (fun () ->
      ignore (Scheduler.every sched ~start:50 ~period:10 (fun () -> ())));
  (* start = now is fine, like schedule at now. *)
  let fired = ref 0 in
  ignore (Scheduler.every sched ~start:100 ~period:10 (fun () -> incr fired));
  Scheduler.run ~until:130 sched;
  Alcotest.(check int) "start=now fires" 4 !fired

let test_scheduler_same_instant_reentry () =
  (* A callback scheduling at the current instant runs in the same
     drain, after currently queued same-time events. *)
  let sched = Scheduler.create () in
  let log = ref [] in
  ignore
    (Scheduler.schedule sched ~at:10 (fun () ->
         log := "first" :: !log;
         ignore (Scheduler.schedule sched ~at:10 (fun () -> log := "nested" :: !log))));
  ignore (Scheduler.schedule sched ~at:10 (fun () -> log := "second" :: !log));
  Scheduler.run sched;
  Alcotest.(check (list string)) "reentry order" [ "first"; "second"; "nested" ] (List.rev !log)

let test_scheduler_until () =
  let sched = Scheduler.create () in
  let count = ref 0 in
  ignore (Scheduler.every sched ~period:10 (fun () -> incr count));
  Scheduler.run ~until:100 sched;
  Alcotest.(check int) "10 periodic firings in 100" 10 !count;
  Alcotest.(check int) "clock advanced to until" 100 (Scheduler.now sched)

let test_periodic_cancel_stops () =
  let sched = Scheduler.create () in
  let count = ref 0 in
  let h = Scheduler.every sched ~period:10 (fun () -> incr count) in
  ignore
    (Scheduler.schedule sched ~at:35 (fun () -> Scheduler.cancel h));
  Scheduler.run ~until:200 sched;
  Alcotest.(check int) "three firings before cancel at 35" 3 !count

let test_periodic_start () =
  let sched = Scheduler.create () in
  let times = ref [] in
  ignore
    (Scheduler.every sched ~start:5 ~period:10 (fun () ->
         times := Scheduler.now sched :: !times));
  Scheduler.run ~until:40 sched;
  Alcotest.(check (list int)) "start offset" [ 5; 15; 25; 35 ] (List.rev !times)

let test_executed_counter () =
  let sched = Scheduler.create () in
  for i = 1 to 5 do
    ignore (Scheduler.schedule sched ~at:(i * 10) (fun () -> ()))
  done;
  Scheduler.run sched;
  Alcotest.(check int) "executed" 5 (Scheduler.executed sched)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "tx_time" `Quick test_tx_time;
    Alcotest.test_case "cycles" `Quick test_cycles;
    Alcotest.test_case "ladder ordering" `Quick test_ladder_ordering;
    Alcotest.test_case "ladder FIFO ties" `Quick test_ladder_fifo_ties;
    Alcotest.test_case "ladder spans rungs" `Quick test_ladder_spans_rungs;
    Alcotest.test_case "ladder rejects past pushes" `Quick test_ladder_past_push_raises;
    Alcotest.test_case "ladder releases payloads" `Quick test_ladder_releases_payloads;
    Alcotest.test_case "ladder take releases payloads" `Quick test_ladder_take_releases_payloads;
    Alcotest.test_case "ladder drain_upto releases payloads" `Quick
      test_ladder_drain_releases_payloads;
    Alcotest.test_case "ladder drain reentry" `Quick test_ladder_drain_reentry;
    Alcotest.test_case "ladder far-future FIFO ties" `Quick test_ladder_far_future_fifo;
    Alcotest.test_case "ladder same-instant burst beyond a bucket" `Quick
      test_ladder_same_instant_burst;
    Alcotest.test_case "ladder oversized bottom becomes a rung" `Quick test_ladder_bottom_spawn;
    Alcotest.test_case "ladder full rung stack keeps order" `Quick test_ladder_rung_cap;
    Alcotest.test_case "ladder nests rungs under a dense cluster" `Quick test_ladder_deep_rungs;
    Alcotest.test_case "ladder restarts cleanly after emptying" `Quick
      test_ladder_restart_after_empty;
    Alcotest.test_case "ladder spawned rung covers the consumed edge" `Quick
      test_ladder_spawned_rung_covers_gap;
    Alcotest.test_case "ladder drain_upto stops at the limit" `Quick test_ladder_drain_upto_limit;
    Alcotest.test_case "next_time/take agree with peek/pop" `Quick test_next_time_take_agree;
    QCheck_alcotest.to_alcotest qcheck_ladder_interleaved;
    QCheck_alcotest.to_alcotest qcheck_ladder_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_ladder_hold_model;
    QCheck_alcotest.to_alcotest qcheck_ladder_drain_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_scheduler_matches_model;
    QCheck_alcotest.to_alcotest qcheck_sliced_run;
    Alcotest.test_case "post from a posted callback" `Quick test_post_from_posted_callback;
    Alcotest.test_case "zero-alloc post/step" `Quick (test_scheduler_zero_alloc ~queued:0);
    Alcotest.test_case "zero-alloc post/step (1000 queued)" `Quick
      (test_scheduler_zero_alloc ~queued:1000);
    Alcotest.test_case "step runs one event" `Quick test_step_runs_one_event;
    Alcotest.test_case "next_time is a lower bound" `Quick test_next_time_lower_bound;
    Alcotest.test_case "set_metrics counts callbacks per class" `Quick
      test_set_metrics_counts_classes;
    Alcotest.test_case "run-until then schedule at now" `Quick test_run_until_then_schedule;
    Alcotest.test_case "zero-event run records no wall sample" `Quick
      test_zero_event_run_records_no_wall;
    QCheck_alcotest.to_alcotest qcheck_scheduler_interleaved;
    Alcotest.test_case "pending excludes cancelled" `Quick test_pending_excludes_cancelled;
    Alcotest.test_case "scheduler order" `Quick test_scheduler_order;
    Alcotest.test_case "scheduler cancel" `Quick test_scheduler_cancel;
    Alcotest.test_case "scheduling in the past raises" `Quick test_scheduler_past_raises;
    Alcotest.test_case "every with stale start raises" `Quick test_every_past_start_raises;
    Alcotest.test_case "same-instant reentry" `Quick test_scheduler_same_instant_reentry;
    Alcotest.test_case "run until" `Quick test_scheduler_until;
    Alcotest.test_case "periodic cancel" `Quick test_periodic_cancel_stops;
    Alcotest.test_case "periodic start offset" `Quick test_periodic_start;
    Alcotest.test_case "executed counter" `Quick test_executed_counter;
  ]
