type t = {
  sched : Eventsim.Scheduler.t;
  clock_period : Eventsim.Sim_time.t;
  mutable last_admit_cycle : int;
  mutable admissions : int;
  mutable packet_carriers : int;
  mutable empty_carriers : int;
}

let default_clock_period = Eventsim.Sim_time.ns 5 (* 200 MHz *)
let default_depth = 16

let create ~sched ?(clock_period = default_clock_period) () =
  if clock_period <= 0 then invalid_arg "Pipeline.create: clock_period must be positive";
  {
    sched;
    clock_period;
    last_admit_cycle = -1;
    admissions = 0;
    packet_carriers = 0;
    empty_carriers = 0;
  }

let latency t = default_depth * t.clock_period
let current_cycle t = Eventsim.Scheduler.now t.sched / t.clock_period
let clock t = fun () -> current_cycle t

let earliest_admission t =
  let now = Eventsim.Scheduler.now t.sched in
  let free_slot = (t.last_admit_cycle + 1) * t.clock_period in
  (* Plain int compare: [Stdlib.max] is a polymorphic-compare call, and
     this runs once per admitted carrier. *)
  if now > free_slot then now else free_slot

let admit t ~has_packet =
  let cycle = current_cycle t in
  if cycle <= t.last_admit_cycle then
    invalid_arg "Pipeline.admit: admission slot already used this cycle";
  t.last_admit_cycle <- cycle;
  t.admissions <- t.admissions + 1;
  if has_packet then t.packet_carriers <- t.packet_carriers + 1
  else t.empty_carriers <- t.empty_carriers + 1;
  Eventsim.Scheduler.now t.sched + latency t

let admissions t = t.admissions
let packet_carriers t = t.packet_carriers
let empty_carriers t = t.empty_carriers

let busy_fraction t =
  let cycles = current_cycle t in
  if cycles <= 0 then 0. else float_of_int t.admissions /. float_of_int cycles
