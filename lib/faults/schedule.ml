module Scheduler = Eventsim.Scheduler

type plan =
  | Periodic of {
      start : Eventsim.Sim_time.t;
      period : Eventsim.Sim_time.t;
      jitter : Eventsim.Sim_time.t;
    }
  | Poisson of { start : Eventsim.Sim_time.t; rate_per_sec : float }
  | Trace of Eventsim.Sim_time.t list

let periodic period = Periodic { start = period; period; jitter = 0 }

let ps_of_sec s = max 1 (int_of_float (s *. 1e12))

let drive ~sched ~rng ~stop plan f =
  match plan with
  | Trace times ->
      List.iter
        (fun at ->
          if at < stop && at >= Scheduler.now sched then
            ignore (Scheduler.schedule ~cls:Scheduler.Fault sched ~at f))
        (List.sort_uniq compare times)
  | Periodic { start; period; jitter } ->
      if period <= 0 then invalid_arg "Faults.Schedule: period must be positive";
      let rec arm at =
        if at < stop then
          ignore
            (Scheduler.schedule ~cls:Scheduler.Fault sched ~at (fun () ->
                 f ();
                 let j = if jitter > 0 then Stats.Rng.int rng (jitter + 1) else 0 in
                 arm (at + period + j)))
      in
      arm (max start (Scheduler.now sched))
  | Poisson { start; rate_per_sec } ->
      if rate_per_sec <= 0. then invalid_arg "Faults.Schedule: rate must be positive";
      let rec arm at =
        if at < stop then
          ignore
            (Scheduler.schedule ~cls:Scheduler.Fault sched ~at (fun () ->
                 f ();
                 arm (at + ps_of_sec (Stats.Dist.exponential rng ~rate:rate_per_sec))))
      in
      arm (max start (Scheduler.now sched))
