module Packet = Netcore.Packet

type t = {
  sched : Eventsim.Scheduler.t;
  id : int;
  mutable tx : (Packet.t -> unit) option;
  mutable receiver : (t -> Packet.t -> unit) option;
  mutable sent : int;
  mutable received : int;
  mutable received_bytes : int;
}

let create ~sched ~id () =
  { sched; id; tx = None; receiver = None; sent = 0; received = 0; received_bytes = 0 }

let set_receiver t f = t.receiver <- Some f
let set_tx t f = t.tx <- Some f

let send t pkt =
  t.sent <- t.sent + 1;
  match t.tx with
  | Some tx -> tx pkt
  | None -> failwith (Printf.sprintf "Host %d: not connected" t.id)

let deliver t pkt =
  t.received <- t.received + 1;
  t.received_bytes <- t.received_bytes + Packet.len pkt;
  match t.receiver with Some f -> f t pkt | None -> ()

let sent t = t.sent
let received t = t.received
let received_bytes t = t.received_bytes
