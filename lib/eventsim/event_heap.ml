(* Binary min-heap on (time, seq), stored as a structure-of-arrays:
   three parallel arrays [times]/[seqs]/[payloads] instead of one array
   of entry records.  Two wins over the AoS layout on the hot path:
   [push] allocates nothing (the old layout boxed a fresh entry record
   per event), and every sift comparison is a load from a flat int
   array rather than a pointer dereference into a heap-allocated
   record.  Sifts move the hole instead of swapping: parents/children
   shift down one store each and the inserted element is written once
   at its final position.

   [payloads] is an [Obj.t array] so the array is always a pointer
   array regardless of ['a] (a ['a array] would go flat when ['a] is
   [float], and our sentinel below is not a valid unboxed float).
   Slots at index >= len are dead; they must not keep the last payload
   that passed through them reachable (payloads are callback closures
   that can capture packets — pinning them for the life of the sim is
   a leak), so dead slots hold the shared inert [dead] value.  All
   indices are bounds-checked by the [len] discipline, which justifies
   the unsafe accesses. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let dead = Obj.repr ()

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let times = Array.make cap' 0 in
  Array.blit t.times 0 times 0 t.len;
  t.times <- times;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  t.seqs <- seqs;
  let payloads = Array.make cap' dead in
  Array.blit t.payloads 0 payloads 0 t.len;
  t.payloads <- payloads

let push t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  (* Sift the hole up: parents later than (time, seq) shift down one
     slot each; the new element is stored once where the hole stops. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set payloads !i (Obj.repr payload)

let peek_time t = if t.len = 0 then None else Some (Array.unsafe_get t.times 0)
let next_time t = if t.len = 0 then -1 else Array.unsafe_get t.times 0

(* Remove the root of a non-empty heap and restore the heap property,
   returning the root payload still as [Obj.t]. *)
let pop_root t =
  let payload = Array.unsafe_get t.payloads 0 in
  let len = t.len - 1 in
  t.len <- len;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  if len > 0 then begin
    (* The last element re-enters at the root hole; sift the hole down
       past every smaller child, then store the element once. *)
    let lt = Array.unsafe_get times len in
    let ls = Array.unsafe_get seqs len in
    let lp = Array.unsafe_get payloads len in
    Array.unsafe_set payloads len dead;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ltm = Array.unsafe_get times l in
            let rtm = Array.unsafe_get times r in
            if
              rtm < ltm
              || (rtm = ltm && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < lt || (ct = lt && Array.unsafe_get seqs c < ls) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set payloads !i (Array.unsafe_get payloads c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i lt;
    Array.unsafe_set seqs !i ls;
    Array.unsafe_set payloads !i lp
  end
  else Array.unsafe_set payloads 0 dead;
  payload

let pop t =
  if t.len = 0 then None
  else
    let time = Array.unsafe_get t.times 0 in
    Some (time, (Obj.obj (pop_root t) : 'a))

let take t =
  if t.len = 0 then invalid_arg "Event_heap.take: empty heap";
  (Obj.obj (pop_root t) : 'a)
