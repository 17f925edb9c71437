module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

exception Failed of string * exn
exception Budget_exhausted
exception Injected_crash of string

type config = {
  policy : Policy.t;
  max_trips : int;
  base_backoff : Sim_time.t;
  max_backoff : Sim_time.t;
  backoff_jitter : Sim_time.t;
  budget : int;
}

let default_config () =
  {
    policy = !Policy.default;
    max_trips = 8;
    base_backoff = Sim_time.us 50;
    max_backoff = Sim_time.ms 1;
    backoff_jitter = Sim_time.us 20;
    budget = 100_000;
  }

type key = {
  k_name : string;
  on_disable : unit -> unit;
  on_enable : unit -> unit;
  k_rng : Stats.Rng.t; (* backoff jitter stream, split at registration *)
  mutable active_ : bool;
  mutable permanent : bool;
  mutable trip_count : int;
  mutable crashes : int;
  mutable watchdog : int;
  mutable dropped : int;
  mutable recovered : int;
  mutable fuel : int;
  mutable pending_crash : int;
  mutable pending_slow : int;
  mutable slow_steps : int;
}

let noop () = ()

(* Sentinel for "no guard running". Using a physical-equality sentinel
   instead of a [key option] keeps the per-invocation guard entry/exit
   allocation-free on the event hot path. *)
let no_key =
  {
    k_name = "<none>";
    on_disable = noop;
    on_enable = noop;
    k_rng = Stats.Rng.create ~seed:0;
    active_ = false;
    permanent = true;
    trip_count = 0;
    crashes = 0;
    watchdog = 0;
    dropped = 0;
    recovered = 0;
    fuel = 0;
    pending_crash = 0;
    pending_slow = 0;
    slow_steps = 0;
  }

type t = {
  sched : Scheduler.t;
  config : config;
  rng : Stats.Rng.t;
  mutable keys : key list; (* registration order, newest first *)
  mutable current : key; (* physically [no_key] outside any guard *)
  mutable trips_ : int;
  mutable recoveries_ : int;
  mutable permanent_ : int;
}

let create ~sched ?config ~seed () =
  let config = match config with Some c -> c | None -> default_config () in
  if config.max_trips <= 0 then invalid_arg "Supervisor.create: max_trips must be positive";
  if config.base_backoff <= 0 then
    invalid_arg "Supervisor.create: base_backoff must be positive";
  {
    sched;
    config;
    rng = Stats.Rng.create ~seed;
    keys = [];
    current = no_key;
    trips_ = 0;
    recoveries_ = 0;
    permanent_ = 0;
  }

let register t ~name ?(on_disable = noop) ?(on_enable = noop) () =
  let key =
    {
      k_name = name;
      on_disable;
      on_enable;
      k_rng = Stats.Rng.split t.rng;
      active_ = true;
      permanent = false;
      trip_count = 0;
        crashes = 0;
      watchdog = 0;
      dropped = 0;
      recovered = 0;
      fuel = 0;
      pending_crash = 0;
      pending_slow = 0;
      slow_steps = 0;
    }
  in
  t.keys <- key :: t.keys;
  key

let key_name k = k.k_name
let active k = k.active_
let permanently_failed k = k.permanent
let key_crashes k = k.crashes

(* Exponential backoff for the [n]th trip (1-based), capped, plus a
   deterministic jitter drawn from the key's own split RNG — so backoff
   timelines are reproducible and independent across handlers. *)
let backoff_delay t key =
  let exp = min (key.trip_count - 1) 30 in
  let nominal = min t.config.max_backoff (t.config.base_backoff * (1 lsl exp)) in
  let nominal = if nominal <= 0 then t.config.max_backoff else nominal in
  let jitter =
    if t.config.backoff_jitter > 0 then Stats.Rng.int key.k_rng (t.config.backoff_jitter + 1)
    else 0
  in
  nominal + jitter

let quarantine t key =
  key.trip_count <- key.trip_count + 1;
  t.trips_ <- t.trips_ + 1;
  key.active_ <- false;
  key.on_disable ();
  if key.trip_count >= t.config.max_trips then begin
    key.permanent <- true;
    t.permanent_ <- t.permanent_ + 1
  end
  else
    let delay = backoff_delay t key in
    Scheduler.post_after ~cls:Scheduler.Resil_backoff t.sched ~delay (fun () ->
        if not key.permanent then begin
          key.active_ <- true;
          key.recovered <- key.recovered + 1;
          t.recoveries_ <- t.recoveries_ + 1;
          key.on_enable ()
        end)

(* A failure has been caught (or, under [Fail_fast], is about to
   abort): account it, then apply the supervisor's policy. *)
let trap t key exn =
  key.crashes <- key.crashes + 1;
  (match exn with Budget_exhausted -> key.watchdog <- key.watchdog + 1 | _ -> ());
  match t.config.policy with
  | Policy.Fail_fast -> raise (Failed (key.k_name, exn))
  | Policy.Drop_event -> key.dropped <- key.dropped + 1
  | Policy.Quarantine ->
      key.dropped <- key.dropped + 1;
      quarantine t key

let consume t n =
  let key = t.current in
  if key != no_key && t.config.budget > 0 then begin
    key.fuel <- key.fuel - n;
    if key.fuel < 0 then raise Budget_exhausted
  end

(* Pre-invocation bookkeeping shared by every guarded entry point:
   arms injected faults and resets the watchdog fuel. Raises (into the
   caller's [trap]) when an injected crash or slowdown fires. *)
let enter t key =
  key.fuel <- t.config.budget;
  t.current <- key;
  if key.pending_crash > 0 then begin
    key.pending_crash <- key.pending_crash - 1;
    raise (Injected_crash key.k_name)
  end;
  if key.pending_slow > 0 then begin
    key.pending_slow <- key.pending_slow - 1;
    consume t key.slow_steps
  end

(* Delivers the result through a (persistent) sink instead of wrapping
   it in an option — no [Some] allocation per guarded invocation on the
   packet hot path. Guards may nest (a handler's [notify_monitor]
   callback is itself guarded), so the previously-running key is
   restored, not cleared. *)
let call_sink t key f a b ~sink =
  if key.permanent || not key.active_ then begin
    key.dropped <- key.dropped + 1;
    false
  end
  else begin
    let prev = t.current in
    match
      enter t key;
      f a b
    with
    | r ->
        t.current <- prev;
        sink r;
        true
    | exception exn ->
        t.current <- prev;
        trap t key exn;
        false
  end

let call_unit t key f a b =
  if key.permanent || not key.active_ then begin
    key.dropped <- key.dropped + 1;
    false
  end
  else begin
    let prev = t.current in
    match
      enter t key;
      f a b
    with
    | () ->
        t.current <- prev;
        true
    | exception exn ->
        t.current <- prev;
        trap t key exn;
        false
  end

let protect t key f =
  if key.permanent || not key.active_ then begin
    key.dropped <- key.dropped + 1;
    false
  end
  else begin
    let prev = t.current in
    match
      enter t key;
      f ()
    with
    | () ->
        t.current <- prev;
        true
    | exception exn ->
        t.current <- prev;
        trap t key exn;
        false
  end

let inject_crash key ~n =
  if n < 0 then invalid_arg "Supervisor.inject_crash: negative count";
  key.pending_crash <- key.pending_crash + n

let inject_slowdown key ~steps ~n =
  if n < 0 then invalid_arg "Supervisor.inject_slowdown: negative count";
  if steps < 0 then invalid_arg "Supervisor.inject_slowdown: negative steps";
  key.slow_steps <- steps;
  key.pending_slow <- key.pending_slow + n

let trips t = t.trips_
let recoveries t = t.recoveries_
let permanent_failures t = t.permanent_
let policy t = t.config.policy
let config t = t.config

let fold_keys t ~init ~f = List.fold_left f init t.keys
let dropped t = fold_keys t ~init:0 ~f:(fun acc k -> acc + k.dropped)
let crashes t = fold_keys t ~init:0 ~f:(fun acc k -> acc + k.crashes)
let watchdog_trips t = fold_keys t ~init:0 ~f:(fun acc k -> acc + k.watchdog)
let quarantined t = fold_keys t ~init:0 ~f:(fun acc k -> acc + (if k.active_ then 0 else 1))

let keys t = List.rev t.keys
let find_key t ~name = List.find_opt (fun k -> k.k_name = name) t.keys

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    let counter ?(labels = labels) name v =
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels name) v
    in
    counter "resil.trips" t.trips_;
    counter "resil.recoveries" t.recoveries_;
    counter "resil.permanent_failures" t.permanent_;
    List.iter
      (fun k ->
        if k.crashes > 0 || k.dropped > 0 || k.trip_count > 0 then begin
          let labels = ("handler", k.k_name) :: labels in
          counter ~labels "resil.handler.crashes" k.crashes;
          counter ~labels "resil.handler.watchdog_trips" k.watchdog;
          counter ~labels "resil.handler.trips" k.trip_count;
          counter ~labels "resil.handler.recoveries" k.recovered;
          counter ~labels "resil.handler.dropped_events" k.dropped
        end)
      (keys t)
  end
