module Scheduler = Eventsim.Scheduler

type t = {
  sched : Scheduler.t;
  sink : Netcore.Packet.t -> unit;
  mutable handle : Scheduler.handle option;
  mutable emitted_this_config : int;
  mutable limit : int option;
  mutable template : (int -> Netcore.Packet.t) option;
}

let create ~sched ~sink () =
  {
    sched;
    sink;
    handle = None;
    emitted_this_config = 0;
    limit = None;
    template = None;
  }

let stop t =
  (match t.handle with Some h -> Scheduler.cancel h | None -> ());
  t.handle <- None;
  t.template <- None

let configure t ~period ?count ~template () =
  if period <= 0 then invalid_arg "Packet_gen.configure: period must be positive";
  stop t;
  t.limit <- count;
  t.template <- Some template;
  t.emitted_this_config <- 0;
  let handle =
    Scheduler.every ~cls:Scheduler.Pktgen t.sched ~period (fun () ->
        match t.template with
        | None -> ()
        | Some template ->
            let i = t.emitted_this_config in
            let continue = match t.limit with None -> true | Some n -> i < n in
            if continue then begin
              t.emitted_this_config <- i + 1;
              t.sink (template i)
            end
            else stop t)
  in
  t.handle <- Some handle

let running t = t.handle <> None
