module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program
module Event = Devents.Event

type t = { mutable bits : int; mutable vt : int }

let state_bits t = t.bits

let program ?(slots = 64) ~weight_of ~out_port () =
  let t = { bits = 0; vt = 0 } in
  let spec ctx =
    let finish =
      Pisa.Register_alloc.array ctx.Program.alloc ~name:"wfq_finish" ~entries:slots ~width:62
    in
    let vtime =
      Pisa.Register_alloc.array ctx.Program.alloc ~name:"wfq_vtime" ~entries:1 ~width:62
    in
    t.bits <- Pisa.Register_array.bits finish + Pisa.Register_array.bits vtime;
    let ingress _ctx pkt =
      let slot =
        match Packet.flow pkt with
        | Some flow -> Netcore.Hashes.fold_range (Flow.hash flow) slots
        | None -> 0
      in
      let weight = max 1 (weight_of ~flow_slot:slot) in
      let v = Pisa.Register_array.read vtime 0 in
      let start = max v (Pisa.Register_array.read finish slot) in
      Pisa.Register_array.write finish slot (start + (Packet.len pkt * 1000 / weight));
      pkt.Packet.meta.Packet.priority <- start;
      pkt.Packet.meta.Packet.flow_id <- slot;
      (* Carry the start tag so the dequeue event can advance V
         (STFQ: V = start tag of the packet in service), and the
         finish increment so an overflow event can roll it back if the
         packet is evicted. *)
      pkt.Packet.meta.Packet.deq_meta.(2) <- start;
      pkt.Packet.meta.Packet.enq_meta.(0) <- slot;
      pkt.Packet.meta.Packet.enq_meta.(2) <- Packet.len pkt * 1000 / weight;
      Program.Forward (out_port pkt)
    in
    (* Dequeue events advance the virtual time to the served packet's
       start tag — the exact signal baseline PISA lacks. *)
    let dequeue _ctx (ev : Event.buffer_event) =
      if ev.Event.meta.(2) > t.vt then begin
        t.vt <- ev.Event.meta.(2);
        Pisa.Register_array.write vtime 0 t.vt
      end
    in
    (* A dropped packet must not advance its flow's finish tag, or a
       backlogged flow's tags run away and eviction starves it: the
       Buffer Overflow event carries the increment to undo. *)
    let overflow _ctx (ev : Event.buffer_event) =
      let slot = ev.Event.meta.(0) in
      let f = Pisa.Register_array.read finish slot in
      Pisa.Register_array.write finish slot (max 0 (f - ev.Event.meta.(2)))
    in
    Program.make ~name:"wfq-pifo" ~ingress ~dequeue ~overflow ()
  in
  (spec, t)
