(* Tests for packets, headers and hashing. *)

module Mac_addr = Netcore.Mac_addr
module Ipv4_addr = Netcore.Ipv4_addr
module Ethernet = Netcore.Ethernet
module Ipv4 = Netcore.Ipv4
module Udp = Netcore.Udp
module Tcp = Netcore.Tcp
module Packet = Netcore.Packet
module Packet_arena = Netcore.Packet_arena
module Flow = Netcore.Flow
module Hashes = Netcore.Hashes

let test_mac_broadcast () =
  Alcotest.(check int) "broadcast" 0xffff_ffff_ffff (Mac_addr.broadcast :> int)

let test_ipv4_addr () =
  let a = Ipv4_addr.of_string "10.1.2.3" in
  Alcotest.(check string) "roundtrip" "10.1.2.3" (Format.asprintf "%a" Ipv4_addr.pp a);
  Alcotest.(check int) "octets" 0x0a010203 (Ipv4_addr.to_int a);
  Alcotest.check_raises "bad octet" (Invalid_argument "Ipv4_addr.of_string: 10.1.2.256")
    (fun () -> ignore (Ipv4_addr.of_string "10.1.2.256"))

let test_flow_of_packet () =
  let pkt =
    Packet.udp_packet
      ~src:(Ipv4_addr.of_string "10.0.0.1")
      ~dst:(Ipv4_addr.of_string "10.0.0.2")
      ~src_port:1234 ~dst_port:80 ~payload_len:10 ()
  in
  match Packet.flow pkt with
  | None -> Alcotest.fail "expected a flow"
  | Some f ->
      Alcotest.(check int) "src port" 1234 f.Flow.src_port;
      Alcotest.(check int) "proto" Ipv4.proto_udp f.Flow.proto

let test_flow_hash_stability () =
  let f1 =
    Flow.make ~src:(Ipv4_addr.of_string "1.1.1.1") ~dst:(Ipv4_addr.of_string "2.2.2.2")
      ~src_port:10 ~dst_port:20 ()
  in
  let f2 =
    Flow.make ~src:(Ipv4_addr.of_string "1.1.1.1") ~dst:(Ipv4_addr.of_string "2.2.2.2")
      ~src_port:10 ~dst_port:20 ()
  in
  Alcotest.(check int) "equal flows hash equal" (Flow.hash f1) (Flow.hash f2);
  let f3 = Flow.make ~src:(Ipv4_addr.of_string "1.1.1.1") ~dst:(Ipv4_addr.of_string "2.2.2.3") () in
  Alcotest.(check bool) "different flows differ" true (Flow.hash f1 <> Flow.hash f3)

let test_salted_hashes_differ () =
  let key = 123456 in
  let h0 = Hashes.salted ~salt:0 key and h1 = Hashes.salted ~salt:1 key in
  Alcotest.(check bool) "salts give distinct functions" true (h0 <> h1);
  Alcotest.(check int) "deterministic" h0 (Hashes.salted ~salt:0 key)

let qcheck_fold_range =
  QCheck.Test.make ~name:"fold_range lands in [0,n)" ~count:500
    QCheck.(pair int (int_range 1 10_000))
    (fun (h, n) ->
      let v = Hashes.fold_range h n in
      v >= 0 && v < n)

let test_clone_for_forward () =
  let pkt =
    Packet.udp_packet
      ~src:(Ipv4_addr.of_string "10.0.0.1")
      ~dst:(Ipv4_addr.of_string "10.0.0.2")
      ~src_port:1 ~dst_port:2 ~payload_len:64 ()
  in
  pkt.Packet.meta.Packet.flow_id <- 77;
  pkt.Packet.meta.Packet.enq_meta.(0) <- 5;
  let copy = Packet.clone_for_forward pkt in
  Alcotest.(check bool) "fresh uid" true (copy.Packet.uid <> pkt.Packet.uid);
  Alcotest.(check int) "meta copied" 77 copy.Packet.meta.Packet.flow_id;
  Alcotest.(check int) "enq_meta copied" 5 copy.Packet.meta.Packet.enq_meta.(0);
  copy.Packet.meta.Packet.flow_id <- 1;
  Alcotest.(check int) "copies are independent" 77 pkt.Packet.meta.Packet.flow_id

let test_packet_len () =
  let pkt =
    Packet.udp_packet
      ~src:(Ipv4_addr.of_string "10.0.0.1")
      ~dst:(Ipv4_addr.of_string "10.0.0.2")
      ~src_port:1 ~dst_port:2 ~payload_len:58 ()
  in
  (* 14 + 20 + 8 + 58 = 100 *)
  Alcotest.(check int) "wire length" 100 (Packet.len pkt)

let test_tcp_packet () =
  let src = Ipv4_addr.of_string "10.0.1.2" and dst = Ipv4_addr.of_string "10.0.3.4" in
  let pkt =
    Packet.tcp_packet ~flags:Tcp.flag_syn ~src ~dst ~src_port:5555 ~dst_port:80 ~payload_len:50 ()
  in
  (* 14 + 20 + 20 + 50 *)
  Alcotest.(check int) "wire length" 104 (Packet.len pkt);
  Alcotest.(check bool) "ethernet, MACs from addresses" true
    (pkt.Packet.eth
    = Ethernet.make ~src:(Mac_addr.host 0x0102) ~dst:(Mac_addr.host 0x0304)
        ~ethertype:Ethernet.ethertype_ipv4);
  Alcotest.(check bool) "ipv4" true
    (pkt.Packet.ip = Some (Ipv4.make ~proto:Ipv4.proto_tcp ~src ~dst ~payload_len:70 ()));
  Alcotest.(check bool) "tcp" true
    (pkt.Packet.l4
    = Packet.Tcp (Tcp.make ~src_port:5555 ~dst_port:80 ~flags:Tcp.flag_syn ()))

let test_packet_without_ip () =
  let eth =
    Ethernet.make ~dst:(Mac_addr.host 1) ~src:(Mac_addr.host 2) ~ethertype:Ethernet.ethertype_event
  in
  let pkt = Packet.create ~payload_len:30 ~eth () in
  Alcotest.(check int) "wire length" 44 (Packet.len pkt);
  Alcotest.(check bool) "no flow" true (Packet.flow pkt = None);
  Alcotest.(check int) "no flow key" (-1) (Packet.flow_key pkt)

(* Arena recycling refills headers with [set]; a refilled header must
   equal a freshly made one, whatever it held before. *)
let test_header_set_refills () =
  let a = Ipv4_addr.of_string "10.0.0.1" and b = Ipv4_addr.of_string "10.0.0.2" in
  let eth = Ethernet.make ~dst:(Mac_addr.host 7) ~src:(Mac_addr.host 8) ~ethertype:0x1234 in
  Ethernet.set eth ~dst:(Mac_addr.host 1) ~src:(Mac_addr.host 2) ~ethertype:0x0800;
  Alcotest.(check bool) "ethernet" true
    (eth = Ethernet.make ~dst:(Mac_addr.host 1) ~src:(Mac_addr.host 2) ~ethertype:0x0800);
  let ip = Ipv4.make ~proto:Ipv4.proto_tcp ~src:b ~dst:a ~payload_len:9 () in
  ip.Ipv4.ttl <- 3;
  Ipv4.set ip ~proto:Ipv4.proto_udp ~src:a ~dst:b ~payload_len:58;
  Alcotest.(check (pair int int)) "ipv4 length, ttl" (78, 64) (ip.Ipv4.total_len, ip.Ipv4.ttl);
  Alcotest.(check bool) "ipv4" true
    (ip = Ipv4.make ~proto:Ipv4.proto_udp ~src:a ~dst:b ~payload_len:58 ());
  let udp = Udp.make ~src_port:9 ~dst_port:9 ~payload_len:1 in
  Udp.set udp ~src_port:1234 ~dst_port:80 ~payload_len:58;
  Alcotest.(check bool) "udp" true (udp = Udp.make ~src_port:1234 ~dst_port:80 ~payload_len:58)

(* Header fields hold only as many bits as their wire fields. *)
let qcheck_header_widths =
  QCheck.Test.make ~name:"header fields keep their wire widths" ~count:200
    QCheck.(quad int int int int)
    (fun (port, seq, flags, byte) ->
      let t = Tcp.make ~src_port:port ~dst_port:(lnot port) ~seq ~flags () in
      let u = Udp.make ~src_port:port ~dst_port:(lnot port) ~payload_len:0 in
      let addr = Ipv4_addr.of_string "1.1.1.1" in
      let ip = Ipv4.make ~proto:(lnot byte) ~src:addr ~dst:addr ~payload_len:0 () in
      (t.Tcp.src_port, t.Tcp.dst_port, t.Tcp.seq, t.Tcp.flags)
      = (port land 0xffff, lnot port land 0xffff, seq land 0xffffffff, flags land 0x1ff)
      && (u.Udp.src_port, u.Udp.dst_port) = (t.Tcp.src_port, t.Tcp.dst_port)
      && (ip.Ipv4.ttl, ip.Ipv4.proto) = (64, lnot byte land 0xff))

(* The allocation-free key the hashing hot path mixes must give the
   same hash as the flow record it stands in for. *)
let qcheck_flow_key =
  QCheck.Test.make ~name:"flow_key mixes to Flow.hash_addresses" ~count:200
    QCheck.(pair (int_bound 0xffffff) (int_bound 0xffffff))
    (fun (s, d) ->
      let addr net x = Ipv4_addr.of_octets net (x lsr 16) ((x lsr 8) land 0xff) (x land 0xff) in
      let pkt =
        Packet.udp_packet ~src:(addr 10 s) ~dst:(addr 11 d) ~src_port:1 ~dst_port:2
          ~payload_len:0 ()
      in
      Hashes.mix64 (Packet.flow_key pkt) = Flow.hash_addresses (Option.get (Packet.flow pkt)))

let arena_src = Ipv4_addr.of_string "10.0.0.1"
let arena_dst = Ipv4_addr.of_string "10.0.0.2"

let arena_acquire arena =
  Packet_arena.acquire_udp arena ~src:arena_src ~dst:arena_dst ~src_port:1234
    ~dst_port:80 ~payload_len:58 ()

let test_arena_recycles () =
  let arena = Packet_arena.create () in
  let p1 = arena_acquire arena in
  let uid1 = p1.Packet.uid in
  p1.Packet.meta.Packet.flow_id <- 99;
  p1.Packet.meta.Packet.enq_meta.(0) <- 7;
  Alcotest.(check int) "live" 1 (Packet_arena.live arena);
  Alcotest.(check int) "created" 1 (Packet_arena.created arena);
  Packet_arena.release arena p1;
  Alcotest.(check int) "pooled after release" 1 (Packet_arena.pooled arena);
  let p2 = arena_acquire arena in
  Alcotest.(check bool) "same physical record reused" true (p1 == p2);
  Alcotest.(check int) "reused counter" 1 (Packet_arena.reused arena);
  Alcotest.(check bool) "fresh uid" true (p2.Packet.uid <> uid1);
  Alcotest.(check int) "meta cleared" 0 p2.Packet.meta.Packet.flow_id;
  Alcotest.(check int) "enq_meta cleared" 0 p2.Packet.meta.Packet.enq_meta.(0);
  (* Headers are refilled in place: the recycled packet must look
     exactly like a freshly built one. *)
  let fresh = arena_acquire (Packet_arena.create ()) in
  Alcotest.(check int) "wire length matches fresh" (Packet.len fresh) (Packet.len p2);
  Alcotest.(check bool) "eth matches fresh" true (p2.Packet.eth = fresh.Packet.eth);
  Alcotest.(check bool) "ip matches fresh" true (p2.Packet.ip = fresh.Packet.ip);
  Alcotest.(check bool) "l4 matches fresh" true (p2.Packet.l4 = fresh.Packet.l4)

let test_arena_release_nil_raises () =
  let arena = Packet_arena.create () in
  Alcotest.check_raises "nil release"
    (Invalid_argument "Packet_arena.release: nil packet") (fun () ->
      Packet_arena.release arena Packet.nil)

(* Satellite: a steady-state acquire/release cycle through a warm arena
   must not touch the minor heap — header records are refilled in
   place and the packet comes off the free stack. *)
let test_arena_zero_alloc () =
  let arena = Packet_arena.create () in
  let cycle n =
    for _ = 1 to n do
      let p = arena_acquire arena in
      Packet_arena.release arena p
    done
  in
  cycle 64;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  cycle iters;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d acquire/release cycles allocated %.0f minor words" iters delta)
    true (delta < 64.)

let suite =
  [
    Alcotest.test_case "mac broadcast" `Quick test_mac_broadcast;
    Alcotest.test_case "ipv4 addr" `Quick test_ipv4_addr;
    Alcotest.test_case "flow of packet" `Quick test_flow_of_packet;
    Alcotest.test_case "flow hash stability" `Quick test_flow_hash_stability;
    Alcotest.test_case "salted hashes" `Quick test_salted_hashes_differ;
    QCheck_alcotest.to_alcotest qcheck_fold_range;
    Alcotest.test_case "clone for forward" `Quick test_clone_for_forward;
    Alcotest.test_case "packet length" `Quick test_packet_len;
    Alcotest.test_case "tcp packet" `Quick test_tcp_packet;
    Alcotest.test_case "packet without ip" `Quick test_packet_without_ip;
    Alcotest.test_case "header set refills like make" `Quick test_header_set_refills;
    QCheck_alcotest.to_alcotest qcheck_header_widths;
    QCheck_alcotest.to_alcotest qcheck_flow_key;
    Alcotest.test_case "arena recycles packets" `Quick test_arena_recycles;
    Alcotest.test_case "arena rejects nil release" `Quick test_arena_release_nil_raises;
    Alcotest.test_case "arena zero-alloc steady state" `Quick test_arena_zero_alloc;
  ]
