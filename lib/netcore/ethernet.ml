type t = { mutable dst : Mac_addr.t; mutable src : Mac_addr.t; mutable ethertype : int }

let size = 14
let ethertype_ipv4 = 0x0800
let ethertype_event = 0x88b7
let make ~dst ~src ~ethertype = { dst; src; ethertype = ethertype land 0xffff }

(* In-place refill for arena-recycled packets. *)
let set t ~dst ~src ~ethertype =
  t.dst <- dst;
  t.src <- src;
  t.ethertype <- ethertype land 0xffff

let pp ppf t =
  Format.fprintf ppf "eth %a -> %a type=0x%04x" Mac_addr.pp t.src Mac_addr.pp t.dst t.ethertype
