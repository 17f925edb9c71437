module Packet = Netcore.Packet

type t = {
  table : Table.t;
  edge_port : int -> bool;
  mutable ingress_version : int;
  mutable stamped : int;
  mutable forwarded : int;
  mutable mixed : int;
  mutable unroutable : int;
}

let create ~keys ~edge_port () =
  { table = Table.create ~keys (); edge_port; ingress_version = 0; stamped = 0; forwarded = 0;
    mixed = 0; unroutable = 0 }

let table t = t.table
let ingress_version t = t.ingress_version
let set_ingress_version t v = t.ingress_version <- v

let decide t pkt ~key =
  let m = pkt.Packet.meta in
  if t.edge_port m.Packet.ingress_port then begin
    (* Edge ingress: stamp the packet with this switch's live version. *)
    m.Packet.version <- t.ingress_version;
    t.stamped <- t.stamped + 1
  end;
  let v = m.Packet.version in
  let port = Table.lookup t.table ~version:v ~key in
  if port >= 0 then begin
    t.forwarded <- t.forwarded + 1;
    port
  end
  else begin
    (* The packet's stamped version is not resident here — it is about
       to be forwarded under some *other* version (or dropped). Either
       way it observed two versions: the consistency violation the
       two-phase protocol exists to prevent. *)
    t.mixed <- t.mixed + 1;
    let fallback = Table.lookup t.table ~version:t.ingress_version ~key in
    if fallback >= 0 then begin
      t.forwarded <- t.forwarded + 1;
      fallback
    end
    else begin
      t.unroutable <- t.unroutable + 1;
      -1
    end
  end

let stamped t = t.stamped
let forwarded t = t.forwarded
let mixed t = t.mixed
let unroutable t = t.unroutable

let export_metrics ?(labels = []) t reg =
  let open Obs.Metrics in
  Counter.set (counter reg ~labels "netupd.agent.stamped") t.stamped;
  Counter.set (counter reg ~labels "netupd.agent.forwarded") t.forwarded;
  Counter.set (counter reg ~labels "netupd.agent.mixed") t.mixed;
  Counter.set (counter reg ~labels "netupd.agent.unroutable") t.unroutable;
  Gauge.set (gauge reg ~labels "netupd.agent.ingress_version") t.ingress_version
