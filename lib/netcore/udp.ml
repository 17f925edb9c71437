type t = { mutable src_port : int; mutable dst_port : int; mutable length : int }

let size = 8

let make ~src_port ~dst_port ~payload_len =
  { src_port = src_port land 0xffff; dst_port = dst_port land 0xffff; length = size + payload_len }

(* In-place refill for arena-recycled packets: same field discipline as
   [make], zero allocation. *)
let set t ~src_port ~dst_port ~payload_len =
  t.src_port <- src_port land 0xffff;
  t.dst_port <- dst_port land 0xffff;
  t.length <- size + payload_len

let pp ppf t = Format.fprintf ppf "udp %d -> %d len=%d" t.src_port t.dst_port t.length
