module Scheduler = Eventsim.Scheduler
module Link = Tmgr.Link

let attach ~sched ~rng ~stop ~plan ?(down_for = Eventsim.Sim_time.us 50) ?(down_jitter = 0)
    ?(on_flap = fun ~effective:_ -> ()) link =
  if down_for <= 0 then invalid_arg "Faults.Flapper: down_for must be positive";
  Schedule.drive ~sched ~rng ~stop plan (fun () ->
      if Link.is_up link then begin
        Link.fail link;
        on_flap ~effective:true;
        let outage =
          down_for + if down_jitter > 0 then Stats.Rng.int rng (down_jitter + 1) else 0
        in
        ignore
          (Scheduler.schedule_after ~cls:Scheduler.Fault sched ~delay:outage (fun () ->
               if not (Link.is_up link) then Link.restore link))
      end
      else on_flap ~effective:false)
