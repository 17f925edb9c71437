module Packet = Netcore.Packet
module Event = Devents.Event
module Program = Evcore.Program
module Shared_register = Devents.Shared_register

type detection = { flow_id : int; occupancy_bytes : int; time : int }

type t = {
  mutable detections : detection list;
  mutable count : int;
  mutable reg : Shared_register.t option;
  over : bool array;
  slots : int;
}

let detections t = List.rev t.detections
let detection_count t = t.count

let state_bits t =
  match t.reg with None -> 0 | Some r -> Shared_register.total_bits r

let occupancy t ~flow_slot =
  match t.reg with None -> 0 | Some r -> Shared_register.read r flow_slot

let program ?(slots = 1024) ~threshold_bytes ~out_port () =
  let t = { detections = []; count = 0; reg = None; over = Array.make slots false; slots } in
  let spec ctx =
    (* shared_register<bit<32>>(NUM_REGS) bufSize_reg; *)
    let buf_size_reg =
      Program.shared_register ctx ~name:"flowBufSize" ~entries:slots ~width:32
    in
    t.reg <- Some buf_size_reg;
    (* One-entry memo over the address key: packets arrive in flow
       bursts, and [Hashes.mix64] chains boxed [Int64] ops, so
       re-mixing an unchanged key would put ~20 words of Int64 boxing
       on every packet. The memoised slot is exactly
       [fold_range (Flow.hash_addresses flow) slots] — hash values are
       unchanged, only recomputation is skipped. *)
    let last_key = ref (-2) in
    let last_slot = ref 0 in
    (* Same trick for the verdict: [Program.Forward port] is immutable,
       so consecutive packets to one egress port can share a single
       decision block instead of allocating one each. *)
    let last_fwd_port = ref (-1) in
    let last_fwd = ref Program.Drop in
    let ingress ctx pkt =
      (* hash(hdr.ip.src ++ hdr.ip.dst, flowID) *)
      let key = Packet.flow_key pkt in
      let flow_id =
        if key < 0 then 0
        else if key = !last_key then !last_slot
        else begin
          let slot = Netcore.Hashes.fold_range (Netcore.Hashes.mix64 key) t.slots in
          last_key := key;
          last_slot := slot;
          slot
        end
      in
      pkt.Packet.meta.Packet.flow_id <- flow_id;
      (* initialize enq & deq metadata for this pkt *)
      pkt.Packet.meta.Packet.enq_meta.(0) <- flow_id;
      pkt.Packet.meta.Packet.enq_meta.(1) <- Packet.len pkt;
      pkt.Packet.meta.Packet.deq_meta.(0) <- flow_id;
      pkt.Packet.meta.Packet.deq_meta.(1) <- Packet.len pkt;
      (* read buffer occupancy of this flow; detect microburst *)
      let occ = Shared_register.read buf_size_reg flow_id in
      if occ > threshold_bytes then begin
        if not t.over.(flow_id) then begin
          t.over.(flow_id) <- true;
          t.count <- t.count + 1;
          t.detections <-
            { flow_id; occupancy_bytes = occ; time = ctx.Program.now () } :: t.detections
        end
      end
      else t.over.(flow_id) <- false;
      let port = out_port pkt in
      if port <> !last_fwd_port then begin
        last_fwd_port := port;
        last_fwd := Program.Forward port
      end;
      !last_fwd
    in
    let enqueue _ctx (ev : Event.buffer_event) =
      Shared_register.event_add buf_size_reg Shared_register.Enq_side ev.Event.meta.(0)
        ev.Event.meta.(1)
    in
    let dequeue _ctx (ev : Event.buffer_event) =
      Shared_register.event_add buf_size_reg Shared_register.Deq_side ev.Event.meta.(0)
        (-ev.Event.meta.(1))
    in
    Program.make ~name:"microburst" ~ingress ~enqueue ~dequeue ()
  in
  (spec, t)
