module Packet = Netcore.Packet
module Flow = Netcore.Flow

type entry = {
  at : Eventsim.Sim_time.t;
  port : int;
  flow : Flow.t;
  pkt_bytes : int;
}

type t = { mutable rev_entries : entry list; mutable len : int; mutable last : int }

let create () = { rev_entries = []; len = 0; last = 0 }
let length t = t.len

let add t entry =
  if entry.at < t.last then invalid_arg "Trace.add: entries must be time-ordered";
  t.rev_entries <- entry :: t.rev_entries;
  t.len <- t.len + 1;
  t.last <- entry.at

let record t ~sched ~port pkt =
  match Packet.flow pkt with
  | None -> ()
  | Some flow ->
      add t { at = Eventsim.Scheduler.now sched; port; flow; pkt_bytes = Packet.len pkt }

let packet_of entry =
  let payload_len =
    max 0 (entry.pkt_bytes - Netcore.Ethernet.size - Netcore.Ipv4.size - Netcore.Udp.size)
  in
  Packet.udp_packet ~src:entry.flow.Flow.src ~dst:entry.flow.Flow.dst
    ~src_port:entry.flow.Flow.src_port ~dst_port:entry.flow.Flow.dst_port ~payload_len ()

let replay t ~sched ~send () =
  let scheduled = ref 0 in
  List.iter
    (fun entry ->
      incr scheduled;
      Eventsim.Scheduler.post sched ~at:entry.at (fun () -> send ~port:entry.port (packet_of entry)))
    (List.rev t.rev_entries);
  !scheduled
