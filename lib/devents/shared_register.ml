module Register_array = Pisa.Register_array
module Pipeline = Pisa.Pipeline

type mode = Multiport | Aggregated
type side = Enq_side | Deq_side
type drain_policy = Round_robin | Enq_first | Deq_first

(* Pending-op queue as an int-pair ring ([q_idx], [q_cycle] in issue
   order) rather than an [(int * int) Queue.t]: the stdlib queue costs
   a tuple plus a cons cell per issued op, which puts two minor-heap
   allocations on every buffer event in aggregated mode. *)
type agg_side = {
  deltas : int array;
  dirty : bool array;
  mutable q_idx : int array;
  mutable q_cycle : int array;
  mutable q_head : int;
  mutable q_count : int;
  side_staleness : Stats.Histogram.t;
}

type t = {
  name : string;
  mode : mode;
  drain_policy : drain_policy;
  pipeline : Pipeline.t;
  main : Register_array.t;
  agg : agg_side array; (* [| enq; deq |], empty in Multiport mode *)
  (* Drain mark, inlined as two plain ints: [Pipeline.mark] would
     allocate a record (and [idle_cycles_since] a result tuple) on
     every [drain] — i.e. on every read/write/add of the register. *)
  mutable mark_cycle : int;
  mutable mark_admissions : int;
  mutable next_side : int; (* round-robin pointer between sides *)
  staleness : Stats.Histogram.t;
  mutable applied : int;
  agg_bits : int;
}

let make_side n =
  {
    deltas = Array.make n 0;
    dirty = Array.make n false;
    q_idx = Array.make 16 0;
    q_cycle = Array.make 16 0;
    q_head = 0;
    q_count = 0;
    side_staleness = Stats.Histogram.log2 ~max_exponent:30;
  }

(* Ring helpers; capacity is a power of two so indices are mask-derived. *)
let side_q_grow s =
  let cap = Array.length s.q_idx in
  let idx = Array.make (2 * cap) 0 in
  let cyc = Array.make (2 * cap) 0 in
  for k = 0 to s.q_count - 1 do
    let j = (s.q_head + k) land (cap - 1) in
    idx.(k) <- s.q_idx.(j);
    cyc.(k) <- s.q_cycle.(j)
  done;
  s.q_idx <- idx;
  s.q_cycle <- cyc;
  s.q_head <- 0

let side_q_push s i cycle =
  if s.q_count = Array.length s.q_idx then side_q_grow s;
  let tail = (s.q_head + s.q_count) land (Array.length s.q_idx - 1) in
  s.q_idx.(tail) <- i;
  s.q_cycle.(tail) <- cycle;
  s.q_count <- s.q_count + 1

let create ~alloc ~pipeline ~mode ?(drain_policy = Round_robin) ~name ~entries ~width () =
  let main =
    Pisa.Register_alloc.array alloc ~name:(name ^ "_main") ~entries ~width
  in
  let agg, agg_bits =
    match mode with
    | Multiport -> ([||], 0)
    | Aggregated ->
        (* The two aggregation arrays are real state: charge them. *)
        let enq = Pisa.Register_alloc.array alloc ~name:(name ^ "_enq_agg") ~entries ~width in
        let deq = Pisa.Register_alloc.array alloc ~name:(name ^ "_deq_agg") ~entries ~width in
        (* The allocator meters them; the live delta state lives in
           plain arrays for signed arithmetic, so keep the register
           arrays as footprint-only placeholders. *)
        ( [| make_side entries; make_side entries |],
          Register_array.bits enq + Register_array.bits deq )
  in
  {
    name;
    mode;
    drain_policy;
    pipeline;
    main;
    agg;
    mark_cycle = Pipeline.current_cycle pipeline;
    mark_admissions = Pipeline.admissions pipeline;
    next_side = 0;
    staleness = Stats.Histogram.log2 ~max_exponent:30;
    applied = 0;
    agg_bits;
  }

let mode t = t.mode
let entries t = Register_array.entries t.main

let apply_one t side ~apply_cycle =
  if side.q_count = 0 then false
  else begin
    let h = side.q_head in
    let index = side.q_idx.(h) in
    let issue_cycle = side.q_cycle.(h) in
    side.q_head <- (h + 1) land (Array.length side.q_idx - 1);
    side.q_count <- side.q_count - 1;
    side.dirty.(index) <- false;
    let delta = side.deltas.(index) in
    side.deltas.(index) <- 0;
    ignore (Register_array.add t.main index delta);
    t.applied <- t.applied + 1;
    let lag = apply_cycle - issue_cycle in
    let stale = float_of_int (if lag > 0 then lag else 0) in
    Stats.Histogram.add t.staleness stale;
    Stats.Histogram.add side.side_staleness stale;
    true
  end

(* Fold pending deltas into the main array, spending at most the
   idle-cycle budget accumulated since the last drain. Sides alternate
   so neither starves. The k-th op drained in this call is deemed to
   have been applied k idle cycles after the mark, never before the
   cycle after it was issued. *)
let drain t =
  match t.mode with
  | Multiport -> ()
  | Aggregated ->
      let current = Pipeline.current_cycle t.pipeline in
      let adm = Pipeline.admissions t.pipeline in
      let idle = current - t.mark_cycle - (adm - t.mark_admissions) in
      let budget = if idle > 0 then idle else 0 in
      t.mark_cycle <- current;
      t.mark_admissions <- adm;
      let remaining = ref budget in
      let exhausted = ref false in
      while (not !exhausted) && !remaining > 0 do
        let apply_cycle =
          let c = current - !remaining + 1 in
          if c > 0 then c else 0
        in
        let first =
          match t.drain_policy with
          | Round_robin ->
              let f = t.next_side in
              t.next_side <- 1 - t.next_side;
              f
          | Enq_first -> 0
          | Deq_first -> 1
        in
        let a = t.agg.(first) and b = t.agg.(1 - first) in
        if apply_one t a ~apply_cycle then decr remaining
        else if apply_one t b ~apply_cycle then decr remaining
        else exhausted := true
      done

let read t i =
  drain t;
  Register_array.read t.main i

let write t i v =
  drain t;
  Register_array.write t.main i v

let add t i delta =
  drain t;
  Register_array.add t.main i delta

let side_index = function Enq_side -> 0 | Deq_side -> 1

let event_add t side i delta =
  match t.mode with
  | Multiport -> ignore (Register_array.add t.main i delta)
  | Aggregated ->
      drain t;
      let s = t.agg.(side_index side) in
      if i < 0 || i >= Array.length s.deltas then
        invalid_arg "Shared_register.event_add: index out of range";
      s.deltas.(i) <- s.deltas.(i) + delta;
      if not s.dirty.(i) then begin
        s.dirty.(i) <- true;
        side_q_push s i (Pipeline.current_cycle t.pipeline)
      end

let true_value t i =
  let base = Register_array.read t.main i in
  match t.mode with
  | Multiport -> base
  | Aggregated -> base + t.agg.(0).deltas.(i) + t.agg.(1).deltas.(i)

let pending_ops t =
  match t.mode with
  | Multiport -> 0
  | Aggregated -> t.agg.(0).q_count + t.agg.(1).q_count

let sync t =
  match t.mode with
  | Multiport -> ()
  | Aggregated ->
      Array.iter
        (fun s ->
          for k = 0 to s.q_count - 1 do
            let i = s.q_idx.((s.q_head + k) land (Array.length s.q_idx - 1)) in
            if s.dirty.(i) then begin
              s.dirty.(i) <- false;
              ignore (Register_array.add t.main i s.deltas.(i));
              s.deltas.(i) <- 0
            end
          done;
          s.q_head <- 0;
          s.q_count <- 0)
        t.agg

let staleness t = t.staleness

let side_staleness t side =
  match t.mode with
  | Multiport -> Stats.Histogram.log2 ~max_exponent:1
  | Aggregated -> t.agg.(side_index side).side_staleness
let max_staleness_cycles t = Stats.Histogram.max_seen t.staleness
let applied_ops t = t.applied
let total_bits t = Register_array.bits t.main + t.agg_bits
let name t = t.name

let export_metrics ?(labels = []) t reg =
  if Obs.Metrics.is_enabled reg then begin
    let labels = ("register", t.name) :: labels in
    Obs.Metrics.Counter.set
      (Obs.Metrics.counter reg ~labels "shared_register.applied_ops")
      t.applied;
    Obs.Metrics.Gauge.set
      (Obs.Metrics.gauge reg ~labels "shared_register.pending_ops")
      (pending_ops t);
    Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg ~labels "shared_register.bits") (total_bits t);
    match t.mode with
    | Multiport -> ()
    | Aggregated ->
        Obs.Metrics.attach_histogram reg ~labels "shared_register.staleness_cycles" t.staleness;
        Array.iteri
          (fun i s ->
            Obs.Metrics.attach_histogram reg
              ~labels:(("side", if i = 0 then "enq" else "deq") :: labels)
              "shared_register.staleness_cycles" s.side_staleness)
          t.agg
  end
