type t = {
  mutable total_len : int;
  mutable ttl : int;
  mutable proto : int;
  mutable src : Ipv4_addr.t;
  mutable dst : Ipv4_addr.t;
}

let size = 20
let proto_tcp = 6
let proto_udp = 17

let make ~proto ~src ~dst ~payload_len () =
  {
    total_len = size + payload_len;
    ttl = 64;
    proto = proto land 0xff;
    src;
    dst;
  }

(* In-place refill for arena-recycled packets: same masking as [make],
   zero allocation. *)
let set t ~proto ~src ~dst ~payload_len =
  t.total_len <- size + payload_len;
  t.ttl <- 64;
  t.proto <- proto land 0xff;
  t.src <- src;
  t.dst <- dst

