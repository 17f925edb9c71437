(* Ring buffer rather than [Stdlib.Queue]: the stdlib queue links one
   cons cell per [push], which puts a minor-heap allocation on every
   packet through the traffic manager. The ring recycles its slots —
   steady-state push/pop allocates nothing — and vacated slots are
   reset to [Packet.nil] so a popped packet is never pinned by the
   queue that carried it. Capacity is a power of two so indices are
   mask-derived. *)

type t = {
  mutable data : Netcore.Packet.t array;
  mutable head : int;
  mutable count : int;
  limit_bytes : int option;
  mutable bytes : int;
  mutable high_watermark : int;
}

let create ?limit_bytes () =
  {
    data = Array.make 16 Netcore.Packet.nil;
    head = 0;
    count = 0;
    limit_bytes;
    bytes = 0;
    high_watermark = 0;
  }

let can_accept t n =
  match t.limit_bytes with None -> true | Some limit -> t.bytes + n <= limit

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) Netcore.Packet.nil in
  for i = 0 to t.count - 1 do
    data.(i) <- t.data.((t.head + i) land (cap - 1))
  done;
  t.data <- data;
  t.head <- 0

let push t pkt =
  if t.count = Array.length t.data then grow t;
  t.data.((t.head + t.count) land (Array.length t.data - 1)) <- pkt;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + Netcore.Packet.len pkt;
  if t.bytes > t.high_watermark then t.high_watermark <- t.bytes

let pop t =
  if t.count = 0 then Netcore.Packet.nil
  else begin
    let pkt = t.data.(t.head) in
    t.data.(t.head) <- Netcore.Packet.nil;
    t.head <- (t.head + 1) land (Array.length t.data - 1);
    t.count <- t.count - 1;
    t.bytes <- t.bytes - Netcore.Packet.len pkt;
    pkt
  end

let high_watermark_bytes t = t.high_watermark
