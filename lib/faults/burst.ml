module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

let attach ~sched ~rng ~stop ~plan ~pkts_per_burst ~pkt_bytes ~rate_gbps ~template ~inject
    ?(on_packet = fun () -> ()) () =
  if pkts_per_burst <= 0 then invalid_arg "Faults.Burst: pkts_per_burst must be positive";
  let gap = Sim_time.tx_time ~bytes:pkt_bytes ~gbps:rate_gbps in
  let idx = ref 0 in
  Schedule.drive ~sched ~rng ~stop plan (fun () ->
      for k = 0 to pkts_per_burst - 1 do
        let i = !idx in
        incr idx;
        Scheduler.post_after ~cls:Scheduler.Fault sched ~delay:(k * gap) (fun () ->
            inject (template i);
            on_packet ())
      done)
