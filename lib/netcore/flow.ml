type t = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

let make ~src ~dst ?(proto = 17) ?(src_port = 0) ?(dst_port = 0) () =
  { src; dst; proto; src_port; dst_port }

let equal a b =
  Ipv4_addr.equal a.src b.src && Ipv4_addr.equal a.dst b.dst && a.proto = b.proto
  && a.src_port = b.src_port && a.dst_port = b.dst_port

let pack t =
  let h = Ipv4_addr.to_int t.src in
  let h = Hashes.mix64 ((h lsl 7) lxor Ipv4_addr.to_int t.dst) in
  let h = Hashes.mix64 ((h lsl 5) lxor ((t.proto lsl 32) lor (t.src_port lsl 16) lor t.dst_port)) in
  h

let hash t = Hashes.mix64 (pack t)
let hash_addresses t = Hashes.mix64 ((Ipv4_addr.to_int t.src lsl 16) lxor Ipv4_addr.to_int t.dst)

let pp ppf t =
  Format.fprintf ppf "%a:%d -> %a:%d/%d" Ipv4_addr.pp t.src t.src_port Ipv4_addr.pp t.dst
    t.dst_port t.proto

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = hash t land max_int
end)
