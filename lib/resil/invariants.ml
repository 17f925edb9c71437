module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

type policy = Abort | Record

exception Violation of string * string

type check = { c_name : string; c_fn : unit -> string option; mutable c_violations : int }

let max_log = 64

type t = {
  sched : Scheduler.t;
  policy : policy;
  period : Sim_time.t;
  mutable checks : check list; (* registration order, newest first *)
  mutable passes : int;
  mutable checks_run_ : int;
  mutable violations_ : int;
  mutable log_ : (Sim_time.t * string * string) list; (* newest first, bounded *)
  mutable running : bool;
}

let create ~sched ?(policy = Record) ?(period = Sim_time.us 100) () =
  if period <= 0 then invalid_arg "Invariants.create: period must be positive";
  {
    sched;
    policy;
    period;
    checks = [];
    passes = 0;
    checks_run_ = 0;
    violations_ = 0;
    log_ = [];
    running = false;
  }

let add t ~name fn =
  t.checks <- { c_name = name; c_fn = fn; c_violations = 0 } :: t.checks

let add_zero t ~name read =
  add t ~name (fun () ->
      let v = read () in
      if v = 0 then None else Some (Printf.sprintf "%s = %d, expected 0" name v))

let record t check msg =
  check.c_violations <- check.c_violations + 1;
  t.violations_ <- t.violations_ + 1;
  if List.length t.log_ < max_log then
    t.log_ <- (Scheduler.now t.sched, check.c_name, msg) :: t.log_;
  match t.policy with
  | Abort -> raise (Violation (check.c_name, msg))
  | Record -> ()

(* One sweep over every registered check. A check that itself raises is
   a violation of its own contract and is recorded the same way. *)
let run_once t =
  t.passes <- t.passes + 1;
  let before = t.violations_ in
  List.iter
    (fun check ->
      t.checks_run_ <- t.checks_run_ + 1;
      match check.c_fn () with
      | None -> ()
      | Some msg -> record t check msg
      | exception (Violation _ as e) -> raise e
      | exception exn -> record t check (Printexc.to_string exn))
    (List.rev t.checks);
  t.violations_ - before

(* [Scheduler.every] never self-terminates (it would keep the run
   alive forever), so the checker reschedules itself and stops past
   the bound, like [Faults.Schedule]. *)
let start t ~stop =
  if not t.running then begin
    t.running <- true;
    let rec tick () =
      ignore (run_once t : int);
      let next = Scheduler.now t.sched + t.period in
      if next <= stop then
        Scheduler.post_after ~cls:Scheduler.Resil_invariant t.sched ~delay:t.period tick
      else t.running <- false
    in
    let first = Scheduler.now t.sched + t.period in
    if first <= stop then
      Scheduler.post_after ~cls:Scheduler.Resil_invariant t.sched ~delay:t.period tick
    else t.running <- false
  end

let passes t = t.passes
let checks_run t = t.checks_run_
let violations t = t.violations_
let violation_log t = List.rev_map (fun (at, name, msg) -> (at, name, msg)) t.log_

let check_stats t = List.rev_map (fun c -> (c.c_name, c.c_violations)) t.checks

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    let counter ?(labels = labels) name v =
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels name) v
    in
    counter "resil.invariant.passes" t.passes;
    counter "resil.invariant.checks_run" t.checks_run_;
    counter "resil.invariant.violations" t.violations_;
    List.iter
      (fun c ->
        if c.c_violations > 0 then
          counter ~labels:(("check", c.c_name) :: labels) "resil.invariant.check_violations"
            c.c_violations)
      (List.rev t.checks)
  end
