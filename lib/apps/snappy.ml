module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program
module Cms = Pisa.Cms

type detection = { flow_id : int; estimate_bytes : int; time : int }

type t = {
  mutable detections : detection list;
  mutable count : int;
  mutable bits : int;
  over : bool array;
}

let detections t = List.rev t.detections
let detection_count t = t.count
let state_bits t = t.bits

let num_snapshots = 8

(* The switch buffer the snapshots rotate across, in bytes. *)
let buffer_bytes = 512 * 1024

let program ?(slots = 1024) ~threshold_bytes ~out_port () =
  let t = { detections = []; count = 0; bits = 0; over = Array.make slots false } in
  let spec ctx =
    let snapshots =
      Array.init num_snapshots (fun i ->
          Cms.create ~alloc:ctx.Program.alloc
            ~name:(Printf.sprintf "snappy_snap%d" i)
            ~width:512 ~depth:2 ~counter_bits:32 ())
    in
    (* Ring bookkeeping registers (window index, per-window byte
       volume), also real data-plane state. *)
    let window_bytes =
      Pisa.Register_alloc.array ctx.Program.alloc ~name:"snappy_window_bytes"
        ~entries:num_snapshots ~width:32
    in
    let head = ref 0 in
    let bytes_in_head = ref 0 in
    t.bits <-
      Array.fold_left (fun acc s -> acc + Cms.bits s) 0 snapshots
      + Pisa.Register_array.bits window_bytes;
    (* Rotate when the head snapshot has absorbed 1/k of the buffer. *)
    let rotate_bytes = max 1 (buffer_bytes / num_snapshots) in
    let flow_slot pkt =
      match Packet.flow pkt with
      | Some flow -> Netcore.Hashes.fold_range (Flow.hash_addresses flow) slots
      | None -> 0
    in
    let ingress _ctx pkt =
      pkt.Packet.meta.Packet.flow_id <- flow_slot pkt;
      Program.Forward (out_port pkt)
    in
    (* Egress-side estimation: PSA egress sees the queue depth the
       packet experienced; sum the snapshots covering that many bytes
       of recent arrivals. *)
    let egress ctx ~port pkt =
      let len = Packet.len pkt in
      let fid = pkt.Packet.meta.Packet.flow_id in
      (* Record the arrival into the head snapshot. *)
      Cms.update snapshots.(!head) ~key:fid ~delta:len;
      bytes_in_head := !bytes_in_head + len;
      Pisa.Register_array.write window_bytes !head !bytes_in_head;
      if !bytes_in_head >= rotate_bytes then begin
        head := (!head + 1) mod num_snapshots;
        Cms.reset snapshots.(!head);
        Pisa.Register_array.write window_bytes !head 0;
        bytes_in_head := 0
      end;
      (* Estimate occupancy: walk back windows until their cumulative
         byte volume covers the current queue depth. *)
      let qdepth = ctx.Program.port_occupancy_bytes port in
      let estimate = ref 0 and covered = ref 0 and k = ref 0 in
      while !covered < qdepth && !k < num_snapshots do
        let idx = (!head - !k + num_snapshots) mod num_snapshots in
        estimate := !estimate + Cms.query snapshots.(idx) ~key:fid;
        covered := !covered + Pisa.Register_array.read window_bytes idx;
        incr k
      done;
      if !estimate > threshold_bytes then begin
        if not t.over.(fid) then begin
          t.over.(fid) <- true;
          t.count <- t.count + 1;
          t.detections <-
            { flow_id = fid; estimate_bytes = !estimate; time = ctx.Program.now () }
            :: t.detections
        end
      end
      else t.over.(fid) <- false;
      Some pkt
    in
    Program.make ~name:"snappy" ~ingress ~egress ()
  in
  (spec, t)
