module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Program = Evcore.Program
module Event = Devents.Event
module Ethernet = Netcore.Ethernet
module Mac_addr = Netcore.Mac_addr

type Packet.payload += State_chunk of { slot : int; value : int }

type mode =
  | Event_driven of { chunk_period : Eventsim.Sim_time.t }
  | Cp_driven of { cp : Evcore.Control_plane.t; batch : int }

type t = {
  slots : int;
  mutable active_reg : Pisa.Register_array.t option;
  mutable standby_reg : Pisa.Register_array.t option;
  mutable started_at : int option;
  mutable completed_at : int option;
  mutable chunks_installed : int;
}

let create ?(slots = 64) () =
  {
    slots;
    active_reg = None;
    standby_reg = None;
    started_at = None;
    completed_at = None;
    chunks_installed = 0;
  }

let migration_completed_at t = t.completed_at
let chunks_installed t = t.chunks_installed

let counter t ~role ~slot =
  let reg = match role with `Active -> t.active_reg | `Standby -> t.standby_reg in
  match reg with None -> 0 | Some r -> Pisa.Register_array.read r slot

let flow_slot t pkt =
  match Packet.flow pkt with
  | Some flow -> Netcore.Hashes.fold_range (Flow.hash_addresses flow) t.slots
  | None -> 0

let chunk_packet ~slot ~value =
  let eth =
    Ethernet.make ~dst:Mac_addr.broadcast
      ~src:(Mac_addr.switch_port ~switch:0 ~port:0)
      ~ethertype:Ethernet.ethertype_event
  in
  Packet.create ~eth ~payload:(State_chunk { slot; value }) ~payload_len:8 ()

let active_program t ~mode ~primary ~backup : Program.spec =
 fun ctx ->
  let counters =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"mig_counters" ~entries:t.slots ~width:32
  in
  t.active_reg <- Some counters;
  let failed_over = ref false in
  let start_migration () =
    if t.started_at = None then begin
      t.started_at <- Some (ctx.Program.now ());
      match mode with
      | Event_driven { chunk_period } ->
          (* One chunk per slot, emitted by the packet generator; the
             generated handler routes them over the backup port. *)
          ctx.Program.configure_pktgen ~period:chunk_period ~count:t.slots
            ~template:(fun i ->
              if i = t.slots - 1 then t.completed_at <- Some (ctx.Program.now ());
              chunk_packet ~slot:i ~value:(Pisa.Register_array.read counters i))
            ()
      | Cp_driven { cp; batch } ->
          (* The CPU reads [batch] slots per op and writes them into
             the standby through another op-equivalent: each batch is
             one submit. *)
          let batches = (t.slots + batch - 1) / batch in
          for b = 0 to batches - 1 do
            Evcore.Control_plane.submit cp (fun () ->
                for i = b * batch to min ((b + 1) * batch) t.slots - 1 do
                  let value = Pisa.Register_array.read counters i in
                  match t.standby_reg with
                  | Some standby ->
                      ignore (Pisa.Register_array.add standby i value);
                      t.chunks_installed <- t.chunks_installed + 1
                  | None -> ()
                done;
                if b = batches - 1 then t.completed_at <- Some (ctx.Program.now ()))
          done
    end
  in
  let ingress _ctx pkt =
    match pkt.Packet.payload with
    | State_chunk _ ->
        (* Our own generated chunk: ship it over the backup path. *)
        Program.Forward backup
    | _ ->
        if !failed_over then
          (* Ownership of the state moved with the traffic: the standby
             counts from here on; we only forward. *)
          Program.Forward backup
        else begin
          let slot = flow_slot t pkt in
          ignore (Pisa.Register_array.add counters slot 1);
          Program.Forward primary
        end
  in
  let link_change _ctx (ev : Event.link_event) =
    if ev.Event.port = primary && not ev.Event.up then begin
      failed_over := true;
      start_migration ()
    end
  in
  Program.make ~name:"migration-active" ~ingress ~link_change ()

let standby_program t ~out_port : Program.spec =
 fun ctx ->
  let counters =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"mig_standby" ~entries:t.slots ~width:32
  in
  t.standby_reg <- Some counters;
  let ingress _ctx pkt =
    match pkt.Packet.payload with
    | State_chunk { slot; value } ->
        (* Install the migrated base on top of whatever we counted
           while the chunks were in flight. *)
        ignore (Pisa.Register_array.add counters slot value);
        t.chunks_installed <- t.chunks_installed + 1;
        Program.Drop
    | _ ->
        let slot = flow_slot t pkt in
        ignore (Pisa.Register_array.add counters slot 1);
        Program.Forward out_port
  in
  Program.make ~name:"migration-standby" ~ingress ()
