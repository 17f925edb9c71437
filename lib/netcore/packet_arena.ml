(* Arena allocator for packets with free-list recycling.

   Traffic sources that create and retire packets at line rate dominate
   the minor heap if every packet is a fresh record tree (packet + meta
   + header records + two meta arrays ≈ 30 words). The arena keeps
   retired packets on a free stack and refills them in place: a
   steady-state acquire/traverse/release cycle allocates zero minor
   words, extending the free-listed nodes of the scheduler's ladder
   queue to packets.

   Ownership discipline: release a packet only when no other reference
   to it remains. In particular [Packet.clone_for_forward] shares
   header records between the original and the clone — releasing the
   original while a clone is alive, then acquiring (which refills
   headers in place), would mutate the clone's view. *)

type t = {
  mutable free : Packet.t array; (* stack; slots >= top hold Packet.nil *)
  mutable top : int;
  mutable created : int;
  mutable reused : int;
  mutable released : int;
  mutable live : int;
}

let create ?(initial = 64) () =
  if initial <= 0 then invalid_arg "Packet_arena.create: initial must be positive";
  { free = Array.make initial Packet.nil; top = 0; created = 0; reused = 0; released = 0; live = 0 }

let live t = t.live
let created t = t.created
let reused t = t.reused
let pooled t = t.top

(* Reset the recycled packet's identity and metadata bus; headers are
   refilled by the typed acquire below. *)
let recycle t =
  t.top <- t.top - 1;
  let p = t.free.(t.top) in
  t.free.(t.top) <- Packet.nil;
  t.reused <- t.reused + 1;
  p.Packet.uid <- Packet.fresh_uid ();
  p.Packet.created_at <- 0;
  p.Packet.payload <- Packet.Opaque;
  let m = p.Packet.meta in
  m.Packet.ingress_port <- -1;
  m.Packet.flow_id <- 0;
  m.Packet.priority <- 0;
  m.Packet.qid <- 0;
  m.Packet.mark <- 0;
  m.Packet.version <- 0;
  Array.fill m.Packet.enq_meta 0 Packet.meta_slots 0;
  Array.fill m.Packet.deq_meta 0 Packet.meta_slots 0;
  p

let acquire_udp t ~src ~dst ~src_port ~dst_port ~payload_len () =
  t.live <- t.live + 1;
  if t.top = 0 then begin
    t.created <- t.created + 1;
    Packet.udp_packet ~src ~dst ~src_port ~dst_port ~payload_len ()
  end
  else begin
    let p = recycle t in
    p.Packet.payload_len <- payload_len;
    (* Refill the header records in place when the recycled packet has
       the right shape (it does whenever the arena is used uniformly);
       rebuild them only on a shape change. *)
    (match (p.Packet.ip, p.Packet.l4) with
    | Some ip, Packet.Udp udp ->
        Udp.set udp ~src_port ~dst_port ~payload_len;
        Ipv4.set ip ~proto:Ipv4.proto_udp ~src ~dst ~payload_len:(Udp.size + payload_len);
        Ethernet.set p.Packet.eth
          ~dst:(Mac_addr.host (Ipv4_addr.to_int dst land 0xffff))
          ~src:(Mac_addr.host (Ipv4_addr.to_int src land 0xffff))
          ~ethertype:Ethernet.ethertype_ipv4
    | _ ->
        p.Packet.l4 <- Packet.Udp (Udp.make ~src_port ~dst_port ~payload_len);
        p.Packet.ip <-
          Some (Ipv4.make ~proto:Ipv4.proto_udp ~src ~dst ~payload_len:(Udp.size + payload_len) ());
        p.Packet.eth <-
          Ethernet.make
            ~dst:(Mac_addr.host (Ipv4_addr.to_int dst land 0xffff))
            ~src:(Mac_addr.host (Ipv4_addr.to_int src land 0xffff))
            ~ethertype:Ethernet.ethertype_ipv4);
    p
  end

let release t p =
  if Packet.is_nil p then invalid_arg "Packet_arena.release: nil packet";
  t.released <- t.released + 1;
  t.live <- t.live - 1;
  if t.top = Array.length t.free then begin
    let free = Array.make (2 * t.top) Packet.nil in
    Array.blit t.free 0 free 0 t.top;
    t.free <- free
  end;
  t.free.(t.top) <- p;
  t.top <- t.top + 1
