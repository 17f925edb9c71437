(* Bounded FIFO as a preallocated ring buffer.

   The capacity is fixed at creation (hardware FIFOs are fixed-size),
   so the slot array is allocated once and a steady-state push/pop
   cycle allocates nothing — unlike the stdlib [Queue] this replaces,
   which consed a cell per push.

   The slot array is created with an inert immediate placeholder
   ([Obj.magic 0]); it is written before ever being read as ['a], and
   popped slots are reset to it so the queue never pins a dead element. *)

type 'a t = {
  slots : 'a array;
  capacity : int;
  mutable head : int; (* index of the oldest element *)
  mutable count : int;
  mutable pushed : int;
  mutable dropped : int;
  mutable high_watermark : int;
}

let hole () : 'a = Obj.magic 0

let create ~capacity =
  if capacity <= 0 then invalid_arg "Event_queue.create: capacity must be positive";
  {
    slots = Array.make capacity (hole ());
    capacity;
    head = 0;
    count = 0;
    pushed = 0;
    dropped = 0;
    high_watermark = 0;
  }

let push t x =
  if t.count >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let i = t.head + t.count in
    let i = if i >= t.capacity then i - t.capacity else i in
    t.slots.(i) <- x;
    t.count <- t.count + 1;
    t.pushed <- t.pushed + 1;
    if t.count > t.high_watermark then t.high_watermark <- t.count;
    true
  end

(* Remove the head element; the caller has checked [count > 0]. *)
let take t =
  let x = t.slots.(t.head) in
  t.slots.(t.head) <- hole ();
  t.head <- (if t.head + 1 >= t.capacity then 0 else t.head + 1);
  t.count <- t.count - 1;
  x

let pop t = if t.count = 0 then None else Some (take t)
let pop_or t ~default = if t.count = 0 then default else take t
let peek t = if t.count = 0 then None else Some t.slots.(t.head)
let length t = t.count
let is_empty t = t.count = 0
let capacity t = t.capacity
let pushed t = t.pushed
let dropped t = t.dropped
let high_watermark t = t.high_watermark
