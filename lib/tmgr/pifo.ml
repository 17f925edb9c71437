type 'a entry = { rank : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  capacity : int option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Pifo.create: capacity must be positive"
  | Some _ | None -> ());
  { data = [||]; len = 0; next_seq = 0; capacity }

let before a b = a.rank < b.rank || (a.rank = b.rank && a.seq < b.seq)

(* Slots at index >= len are dead; they must not keep the last entry
   that passed through them reachable (values are packets — pinning
   them for the life of the PIFO is a leak).  Dead slots hold this
   shared inert entry instead; its value is never read because the API
   only exposes slots below [len].  [entry] is a mixed int/pointer
   record, so the representation is the same for every ['a] and the
   cast is safe. *)
let null_entry : Obj.t entry = { rank = min_int; seq = min_int; value = Obj.repr () }
let null () : 'a entry = Obj.magic null_entry

let grow t =
  let cap = Array.length t.data in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let data = Array.make cap' (null ()) in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let sift_up t i =
  let entry = t.data.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before entry t.data.(parent) then begin
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- entry;
      i := parent
    end
    else continue := false
  done

let sift_down t i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && before t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.len && before t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      i := !smallest
    end
    else continue := false
  done

(* Index of the worst (largest-rank, latest) element: it is among the
   leaves; linear scan of the second half of the heap. *)
let worst_index t =
  let worst = ref (t.len / 2) in
  for i = (t.len / 2) + 1 to t.len - 1 do
    if before t.data.(!worst) t.data.(i) then worst := i
  done;
  !worst

let do_push t entry =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let remove_at t i =
  t.len <- t.len - 1;
  if i < t.len then begin
    t.data.(i) <- t.data.(t.len);
    t.data.(t.len) <- null ();
    sift_down t i;
    sift_up t i
  end
  else t.data.(i) <- null ()

let push_evict t ~rank value =
  let entry = { rank; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  match t.capacity with
  | Some c when t.len >= c ->
      let w = worst_index t in
      if before entry t.data.(w) then begin
        (* Evict the worst to admit the better-ranked newcomer. *)
        let evicted = t.data.(w).value in
        remove_at t w;
        do_push t entry;
        `Evicted evicted
      end
      else `Rejected
  | Some _ | None ->
      do_push t entry;
      `Accepted

let push t ~rank value =
  match push_evict t ~rank value with `Accepted | `Evicted _ -> true | `Rejected -> false

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    remove_at t 0;
    Some top.value
  end

let length t = t.len
