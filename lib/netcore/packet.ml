type l4 = Udp of Udp.t | Tcp of Tcp.t | No_l4
type payload = ..
type payload += Opaque

type meta = {
  mutable ingress_port : int;
  mutable flow_id : int;
  mutable priority : int;
  mutable qid : int;
  mutable mark : int;
  mutable version : int;
  enq_meta : int array;
  deq_meta : int array;
}

(* All fields are mutable so a {!Packet_arena} can recycle packet
   records in place; outside arena reuse they are set once at creation
   and treated as immutable. *)
type t = {
  mutable uid : int;
  mutable eth : Ethernet.t;
  mutable ip : Ipv4.t option;
  mutable l4 : l4;
  mutable payload : payload;
  mutable payload_len : int;
  mutable created_at : int;
  meta : meta;
}

let meta_slots = 4

(* Atomic so uids stay unique when several simulation shards (OCaml
   domains) create packets concurrently. *)
let next_uid = Atomic.make 0
let fresh_uid () = 1 + Atomic.fetch_and_add next_uid 1

let fresh_meta () =
  {
    ingress_port = -1;
    flow_id = 0;
    priority = 0;
    qid = 0;
    mark = 0;
    version = 0;
    enq_meta = Array.make meta_slots 0;
    deq_meta = Array.make meta_slots 0;
  }

let create ?ip ?(l4 = No_l4) ?(payload = Opaque) ?(payload_len = 0) ?(created_at = 0) ~eth () =
  let uid = fresh_uid () in
  { uid; eth; ip; l4; payload; payload_len; created_at; meta = fresh_meta () }

(* Distinguished "no packet" sentinel, identity-checked. Built as a
   literal so it consumes no uid (uid numbering stays reproducible). *)
let nil =
  {
    uid = -1;
    eth = Ethernet.make ~dst:(Mac_addr.host 0) ~src:(Mac_addr.host 0) ~ethertype:0;
    ip = None;
    l4 = No_l4;
    payload = Opaque;
    payload_len = 0;
    created_at = 0;
    meta = fresh_meta ();
  }

let is_nil t = t == nil

let udp_packet ?(created_at = 0) ?(payload = Opaque) ~src ~dst ~src_port ~dst_port ~payload_len () =
  let udp = Udp.make ~src_port ~dst_port ~payload_len in
  let ip =
    Ipv4.make ~proto:Ipv4.proto_udp ~src ~dst ~payload_len:(Udp.size + payload_len) ()
  in
  let eth =
    Ethernet.make
      ~dst:(Mac_addr.host (Ipv4_addr.to_int dst land 0xffff))
      ~src:(Mac_addr.host (Ipv4_addr.to_int src land 0xffff))
      ~ethertype:Ethernet.ethertype_ipv4
  in
  create ~ip ~l4:(Udp udp) ~payload ~payload_len ~created_at ~eth ()

let tcp_packet ?(created_at = 0) ?(payload = Opaque) ?(flags = 0) ?(seq = 0) ~src ~dst ~src_port
    ~dst_port ~payload_len () =
  let tcp = Tcp.make ~src_port ~dst_port ~seq ~flags () in
  let ip =
    Ipv4.make ~proto:Ipv4.proto_tcp ~src ~dst ~payload_len:(Tcp.size + payload_len) ()
  in
  let eth =
    Ethernet.make
      ~dst:(Mac_addr.host (Ipv4_addr.to_int dst land 0xffff))
      ~src:(Mac_addr.host (Ipv4_addr.to_int src land 0xffff))
      ~ethertype:Ethernet.ethertype_ipv4
  in
  create ~ip ~l4:(Tcp tcp) ~payload ~payload_len ~created_at ~eth ()

let l4_size = function Udp _ -> Udp.size | Tcp _ -> Tcp.size | No_l4 -> 0

let len t =
  Ethernet.size + (match t.ip with Some _ -> Ipv4.size | None -> 0) + l4_size t.l4 + t.payload_len

let flow t =
  match t.ip with
  | None -> None
  | Some ip ->
      let src_port, dst_port =
        match t.l4 with
        | Udp u -> (u.Udp.src_port, u.Udp.dst_port)
        | Tcp tc -> (tc.Tcp.src_port, tc.Tcp.dst_port)
        | No_l4 -> (0, 0)
      in
      Some (Flow.make ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst ~proto:ip.Ipv4.proto ~src_port ~dst_port ())

let flow_exn t =
  match flow t with Some f -> f | None -> invalid_arg "Packet.flow_exn: no IP header"

(* Same key {!Flow.hash_addresses} feeds to the mixer, without building
   the flow record, the port tuple, or the option on the way — the
   per-packet hashing hot path must not allocate. [-1] (impossible for
   a real key: both addresses are non-negative) marks "no IP header". *)
let flow_key t =
  match t.ip with
  | None -> -1
  | Some ip -> (Ipv4_addr.to_int ip.Ipv4.src lsl 16) lxor Ipv4_addr.to_int ip.Ipv4.dst

let with_meta_of dst src =
  dst.meta.ingress_port <- src.meta.ingress_port;
  dst.meta.flow_id <- src.meta.flow_id;
  dst.meta.priority <- src.meta.priority;
  dst.meta.qid <- src.meta.qid;
  dst.meta.mark <- src.meta.mark;
  dst.meta.version <- src.meta.version;
  Array.blit src.meta.enq_meta 0 dst.meta.enq_meta 0 meta_slots;
  Array.blit src.meta.deq_meta 0 dst.meta.deq_meta 0 meta_slots

let clone_for_forward ?eth ?ip t =
  let uid = fresh_uid () in
  let copy =
    {
      t with
      uid;
      eth = (match eth with Some e -> e | None -> t.eth);
      ip = (match ip with Some i -> Some i | None -> t.ip);
      meta = fresh_meta ();
    }
  in
  with_meta_of copy t;
  copy

let pp ppf t =
  match t.ip with
  | Some ip -> Format.fprintf ppf "pkt#%d %a len=%d" t.uid Ipv4.pp ip (len t)
  | None -> Format.fprintf ppf "pkt#%d %a len=%d" t.uid Ethernet.pp t.eth (len t)
