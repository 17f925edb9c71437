(* Ladder queue (Tang, Goh & Thng 2005), keyed on Sim_time picoseconds.

   Three tiers. [top] is an unsorted bag for far-future events beyond
   [top_start]. Below it sits a stack of up to [max_rungs] {e rungs},
   each an array of [nbuckets] buckets spanning progressively finer
   time ranges: rung [i+1] always subdivides the most recently consumed
   bucket of rung [i], so the remaining coverages tile the timeline —
   bottom, then the innermost rung, outward to rung 0, then top.
   [bottom] is a short (time, seq)-sorted list holding the events that
   fire next.

   When bottom empties, the innermost rung's next non-empty bucket is
   consumed: sorted into bottom if small, or — if it holds more than
   [spawn_threshold] events across at least two distinct times — spread
   over a freshly spawned finer rung. When the rungs are exhausted the
   whole top is spread over a new rung 0. A bottom that grows past
   [bottom_spawn] through direct insertion is itself converted into a
   rung, keeping insertions O(1) amortised under any arrival pattern.

   Determinism: every node carries a push sequence number, and the only
   ordered structure is bottom, sorted by (time, seq). Bucket and top
   lists are unordered (LIFO appends), so firing order is exactly
   (time, seq) regardless of how events migrated through the tiers.

   Nodes are recycled through a free list and the bucket-sorting
   scratch array is retained and grown geometrically, so a steady-state
   push/pop cycle allocates nothing. Dead nodes never pin their old
   payload (cleared on release). *)

type 'a node = {
  mutable time : int;
  mutable seq : int;
  mutable tag : int; (* caller's small int, returned with the payload *)
  mutable payload : 'a;
  mutable next : 'a node;
}

(* Shared inert node used as list terminator and free-list end. [node]
   is a mixed int/pointer record, so its representation is the same for
   every ['a] and the cast is safe. Its fields are never mutated: append/release always check
   for it first. *)
let nil_node : Obj.t node =
  let rec n = { time = min_int; seq = 0; tag = 0; payload = Obj.repr (); next = n } in
  n

let nil () : 'a node = Obj.magic nil_node
let is_nil (n : 'a node) = n == (Obj.magic nil_node : 'a node)

let nbuckets = 64
let max_rungs = 16
let spawn_threshold = 48
let bottom_spawn = 96

type 'a rung = {
  heads : 'a node array; (* [nbuckets] unordered bucket lists *)
  counts : int array;
  mutable width : int; (* bucket time span, >= 1 *)
  mutable r_start : int; (* time of bucket 0's left edge *)
  mutable r_cur : int; (* buckets [0, r_cur) already consumed *)
  mutable r_count : int; (* events resident in this rung *)
}

type 'a t = {
  mutable rungs : 'a rung array; (* stack, outermost first; grown lazily *)
  mutable nrungs : int;
  mutable top : 'a node; (* unordered; times >= top_start *)
  mutable top_count : int;
  mutable top_min : int;
  mutable top_max : int;
  mutable top_start : int;
  mutable bottom : 'a node; (* sorted by (time, seq) *)
  mutable bot_count : int;
  mutable pos : int; (* last popped time; never travels backwards *)
  mutable seq : int; (* monotone push counter *)
  mutable len : int;
  mutable free : 'a node;
  mutable scratch : 'a node array; (* bucket-sort staging, reused *)
}

let create () =
  {
    rungs = [||];
    nrungs = 0;
    top = nil ();
    top_count = 0;
    top_min = max_int;
    top_max = min_int;
    top_start = 0;
    bottom = nil ();
    bot_count = 0;
    pos = 0;
    seq = 0;
    len = 0;
    free = nil ();
    scratch = [||];
  }

let length t = t.len

(* {2 Node pool} *)

let alloc_node t ~time ~tag payload =
  let s = t.seq in
  t.seq <- s + 1;
  let n = t.free in
  if is_nil n then { time; seq = s; tag; payload; next = nil () }
  else begin
    t.free <- n.next;
    n.next <- nil ();
    n.time <- time;
    n.seq <- s;
    n.tag <- tag;
    n.payload <- payload;
    n
  end

let release_node t n =
  n.payload <- Obj.magic ();
  n.time <- 0;
  n.next <- t.free;
  t.free <- n

(* {2 Rungs} *)

let fresh_rung () =
  {
    heads = Array.make nbuckets (nil ());
    counts = Array.make nbuckets 0;
    width = 1;
    r_start = 0;
    r_cur = 0;
    r_count = 0;
  }

(* Push a rung frame reusing any previously allocated one. *)
let push_rung t ~r_start ~width =
  if t.nrungs = Array.length t.rungs then begin
    let grown = Array.make (max 4 (2 * t.nrungs)) (fresh_rung ()) in
    Array.blit t.rungs 0 grown 0 t.nrungs;
    for i = max 1 t.nrungs to Array.length grown - 1 do
      grown.(i) <- fresh_rung ()
    done;
    t.rungs <- grown
  end;
  let r = t.rungs.(t.nrungs) in
  t.nrungs <- t.nrungs + 1;
  r.width <- width;
  r.r_start <- r_start;
  r.r_cur <- 0;
  r.r_count <- 0;
  r

(* Times before this edge have already left rung [r]. *)
let consumed_end r = r.r_start + (r.r_cur * r.width)

let bucket_insert r n =
  let idx = (n.time - r.r_start) / r.width in
  let idx = if idx >= nbuckets then nbuckets - 1 else idx in
  n.next <- Array.unsafe_get r.heads idx;
  Array.unsafe_set r.heads idx n;
  Array.unsafe_set r.counts idx (Array.unsafe_get r.counts idx + 1);
  r.r_count <- r.r_count + 1

(* Spread an unordered list over a freshly spawned rung. The rung
   starts at the list's actual minimum but its 64 buckets must cover
   everything up to [bound] — the consumed edge of the tier the list
   came from — so that the remaining coverages keep tiling the
   timeline exactly. An inner rung ending short of that edge would
   leave a gap: a later push into the gap would select this rung, get
   clamped into its last bucket, and — once the rung is fully consumed
   — strand the event behind [r_cur]. *)
let spawn_rung_from_list t list ~tmin ~bound =
  let width = max 1 ((bound - tmin + nbuckets - 1) / nbuckets) in
  let r = push_rung t ~r_start:tmin ~width in
  let n = ref list in
  while not (is_nil !n) do
    let next = !n.next in
    bucket_insert r !n;
    n := next
  done;
  r

(* {2 Bottom} *)

let node_before (a : 'a node) (b : 'a node) =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Insert one node into the sorted bottom list. Bottom is kept short by
   [bottom_spawn], so the scan is bounded in steady state. *)
let bottom_insert t n =
  if is_nil t.bottom || node_before n t.bottom then begin
    n.next <- t.bottom;
    t.bottom <- n
  end
  else begin
    let prev = ref t.bottom in
    while (not (is_nil !prev.next)) && node_before !prev.next n do
      prev := !prev.next
    done;
    n.next <- !prev.next;
    !prev.next <- n
  end;
  t.bot_count <- t.bot_count + 1

(* In-place heapsort of [a.(0) .. a.(cnt-1)] by (time, seq): the stdlib
   [Array.sort] has no subrange variant and the scratch array is longer
   than the live prefix (padded with nil nodes that must stay put).
   (time, seq) is a total order, so stability is irrelevant. *)
(* Top-level (not a local closure of [sort_nodes]: capturing [a] would
   put one closure allocation on every bucket consumption, breaking the
   zero-allocation steady state for single-event buckets). *)
let sift_down (a : 'a node array) root last =
  let r = ref root in
  let continue = ref true in
  while !continue do
    let child = (2 * !r) + 1 in
    if child > last then continue := false
    else begin
      let child =
        if child < last && node_before (Array.unsafe_get a child) (Array.unsafe_get a (child + 1))
        then child + 1
        else child
      in
      if node_before (Array.unsafe_get a !r) (Array.unsafe_get a child) then begin
        let tmp = Array.unsafe_get a !r in
        Array.unsafe_set a !r (Array.unsafe_get a child);
        Array.unsafe_set a child tmp;
        r := child
      end
      else continue := false
    end
  done

let sort_nodes (a : 'a node array) cnt =
  for i = (cnt / 2) - 1 downto 0 do
    sift_down a i (cnt - 1)
  done;
  for last = cnt - 1 downto 1 do
    let tmp = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a last);
    Array.unsafe_set a last tmp;
    sift_down a 0 (last - 1)
  done

(* Sort an unordered [cnt]-node list into the (empty) bottom via the
   scratch array: O(cnt log cnt), no allocation once scratch is warm. *)
let sort_list_into_bottom t list cnt =
  if Array.length t.scratch < cnt then
    t.scratch <- Array.make (max 64 (2 * cnt)) (nil ());
  let a = t.scratch in
  let n = ref list in
  for i = 0 to cnt - 1 do
    Array.unsafe_set a i !n;
    n := !n.next
  done;
  sort_nodes a cnt;
  let tail = ref t.bottom in
  (* Bottom is empty whenever a bucket is consumed; link back-to-front. *)
  for i = cnt - 1 downto 0 do
    let node = Array.unsafe_get a i in
    node.next <- !tail;
    tail := node;
    Array.unsafe_set a i (nil ())
  done;
  t.bottom <- !tail;
  t.bot_count <- t.bot_count + cnt

(* Convert an oversized bottom into a new innermost rung. Requires at
   least two distinct times (a same-time run cannot be subdivided and
   pops in O(1) anyway). *)
let spawn_rung_from_bottom t =
  let tmin = t.bottom.time in
  let tmax = ref min_int in
  let n = ref t.bottom in
  while not (is_nil !n) do
    if !n.time > !tmax then tmax := !n.time;
    n := !n.next
  done;
  if !tmax > tmin && t.nrungs < max_rungs then begin
    let list = t.bottom in
    t.bottom <- nil ();
    t.bot_count <- 0;
    (* Bottom's coverage ends at the innermost consumed edge (or at
       [top_start] when no rungs exist); the new rung takes it over. *)
    let bound =
      if t.nrungs > 0 then consumed_end t.rungs.(t.nrungs - 1) else t.top_start
    in
    ignore (spawn_rung_from_list t list ~tmin ~bound)
  end

(* {2 Insertion} *)

let push t ~time ~tag payload =
  if time < t.pos then
    invalid_arg
      (Printf.sprintf "Ladder_queue.push: time=%d is before ladder position %d"
         time t.pos);
  let n = alloc_node t ~time ~tag payload in
  t.len <- t.len + 1;
  if t.len = 1 then begin
    (* Structure was empty: drop any exhausted rung frames (moving
       [top_start] below their nominal spans would otherwise let a
       later push match a fully-consumed rung) and reset top so the
       bag covers everything again — far-future parking stays O(1). *)
    t.nrungs <- 0;
    t.top_start <- time;
    t.top_min <- time;
    t.top_max <- time;
    n.next <- nil ();
    t.top <- n;
    t.top_count <- 1
  end
  else if time >= t.top_start then begin
    n.next <- t.top;
    t.top <- n;
    t.top_count <- t.top_count + 1;
    if time < t.top_min then t.top_min <- time;
    if time > t.top_max then t.top_max <- time
  end
  else begin
    (* Outermost rung whose remaining coverage contains [time]; the
       consumed edges decrease inwards, so the first match wins. *)
    let i = ref 0 in
    while !i < t.nrungs && time < consumed_end t.rungs.(!i) do incr i done;
    if !i < t.nrungs then bucket_insert t.rungs.(!i) n
    else begin
      bottom_insert t n;
      if t.bot_count > bottom_spawn then spawn_rung_from_bottom t
    end
  end

(* {2 Refill: keep bottom non-empty while events remain} *)

let list_bounds list =
  let tmin = ref max_int and tmax = ref min_int in
  let n = ref list in
  while not (is_nil !n) do
    if !n.time < !tmin then tmin := !n.time;
    if !n.time > !tmax then tmax := !n.time;
    n := !n.next
  done;
  (!tmin, !tmax)

let rec ensure_bottom t =
  if t.bot_count = 0 then
    if t.nrungs > 0 then begin
      let r = t.rungs.(t.nrungs - 1) in
      if r.r_count = 0 then begin
        t.nrungs <- t.nrungs - 1;
        ensure_bottom t
      end
      else begin
        let j = ref r.r_cur in
        while Array.unsafe_get r.counts !j = 0 do incr j done;
        let list = Array.unsafe_get r.heads !j in
        let cnt = Array.unsafe_get r.counts !j in
        Array.unsafe_set r.heads !j (nil ());
        Array.unsafe_set r.counts !j 0;
        r.r_count <- r.r_count - cnt;
        r.r_cur <- !j + 1;
        if cnt > spawn_threshold && r.width > 1 && t.nrungs < max_rungs then begin
          let tmin, tmax = list_bounds list in
          if tmax > tmin then
            (* The new rung must cover everything up to this bucket's
               right edge — the consumed boundary just advanced. *)
            ignore (spawn_rung_from_list t list ~tmin ~bound:(consumed_end r))
          else sort_list_into_bottom t list cnt
        end
        else sort_list_into_bottom t list cnt;
        ensure_bottom t
      end
    end
    else if t.top_count > 0 then begin
      let span = t.top_max - t.top_min + 1 in
      let width = (span + nbuckets - 1) / nbuckets in
      let r = push_rung t ~r_start:t.top_min ~width in
      let n = ref t.top in
      t.top <- nil ();
      t.top_count <- 0;
      while not (is_nil !n) do
        let next = !n.next in
        bucket_insert r !n;
        n := next
      done;
      t.top_start <- r.r_start + (nbuckets * r.width);
      t.top_min <- max_int;
      t.top_max <- min_int;
      ensure_bottom t
    end

(* {2 Removal} *)

let next_time t =
  ensure_bottom t;
  if t.bot_count = 0 then -1 else t.bottom.time

let next_tag t =
  ensure_bottom t;
  if t.bot_count = 0 then invalid_arg "Ladder_queue.next_tag: empty queue";
  t.bottom.tag

let take t =
  ensure_bottom t;
  if t.bot_count = 0 then invalid_arg "Ladder_queue.take: empty queue";
  let n = t.bottom in
  t.bottom <- n.next;
  t.bot_count <- t.bot_count - 1;
  t.len <- t.len - 1;
  t.pos <- n.time;
  let payload = n.payload in
  release_node t n;
  payload

let drain_upto t ~limit f =
  let continue = ref true in
  while !continue do
    ensure_bottom t;
    if t.bot_count = 0 then continue := false
    else begin
      let n = t.bottom in
      let time = n.time in
      if time > limit then continue := false
      else begin
        t.bottom <- n.next;
        t.bot_count <- t.bot_count - 1;
        t.len <- t.len - 1;
        t.pos <- time;
        let tag = n.tag and payload = n.payload in
        release_node t n;
        f ~time ~tag payload
      end
    end
  done
