type operand = Const of int | State | Input | Reg of int
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type guard =
  | Always
  | Cmp of cmp * operand * operand
  | All of guard list
  | Any of guard list

type update =
  | Set of operand
  | Add of operand * operand
  | Sub of operand * operand
  | Sat_add of operand * operand
  | Sat_sub of operand * operand
  | Min of operand * operand
  | Max of operand * operand

type action = { reg : int; update : update }

type transition = {
  from_state : int;
  guard : guard;
  next_state : int;
  actions : action list;
}

type t = {
  entries : int;
  nregs : int;
  mask : int;
  timeout : Eventsim.Sim_time.t option;
  transitions : transition list;
  clock : (unit -> int) option;
  state : Register_array.t;
  regs : Register_array.t;  (* entries * nregs, bank-major *)
  keys : int array;
  valid : bool array;
  last_access_ps : int array;
  last_access_cycle : int array;
  slot_of_key : (int, int) Hashtbl.t;
  mutable free : int list;  (* ascending; head = next slot *)
  mutable steps : int;
  mutable hits : int;
  mutable inserts : int;
  mutable fired : int;
  mutable guard_misses : int;
  mutable stalls : int;
  mutable evictions_timeout : int;
  mutable evictions_capacity : int;
  mutable sweeps : int;
}

let validate_operand ~nregs = function
  | Reg r when r < 0 || r >= nregs ->
      invalid_arg (Printf.sprintf "Efsm: register r%d out of [0,%d)" r nregs)
  | _ -> ()

let rec validate_guard ~nregs = function
  | Always -> ()
  | Cmp (_, a, b) ->
      validate_operand ~nregs a;
      validate_operand ~nregs b
  | All gs | Any gs -> List.iter (validate_guard ~nregs) gs

let validate_update ~nregs = function
  | Set a -> validate_operand ~nregs a
  | Add (a, b) | Sub (a, b) | Sat_add (a, b) | Sat_sub (a, b) | Min (a, b) | Max (a, b) ->
      validate_operand ~nregs a;
      validate_operand ~nregs b

let validate_transition ~nregs ~state_mask tr =
  if tr.from_state < 0 || tr.from_state > state_mask then
    invalid_arg (Printf.sprintf "Efsm: from_state %d exceeds state width" tr.from_state);
  if tr.next_state < 0 || tr.next_state > state_mask then
    invalid_arg (Printf.sprintf "Efsm: next_state %d exceeds state width" tr.next_state);
  validate_guard ~nregs tr.guard;
  List.iter
    (fun a ->
      if a.reg < 0 || a.reg >= nregs then
        invalid_arg (Printf.sprintf "Efsm: action register r%d out of [0,%d)" a.reg nregs);
      validate_update ~nregs a.update)
    tr.actions

let occupancy t = Hashtbl.length t.slot_of_key
let steps t = t.steps
let fired t = t.fired
let guard_misses t = t.guard_misses
let stalls t = t.stalls
let evictions_timeout t = t.evictions_timeout
let evictions_capacity t = t.evictions_capacity
let sweeps t = t.sweeps

let state_hash t =
  (* Deterministic fold over occupied contexts in slot order; slot
     assignment is itself deterministic given the event order, which is
     exactly what conformance runs pin. Snapshots are unported reads so
     hashing does not perturb access accounting. *)
  let mix h x = ((h * 2862933555777941757) + x + 1442695040888963407) land max_int in
  let states = Register_array.to_array t.state in
  let regs = Register_array.to_array t.regs in
  let h = ref 1 in
  for slot = 0 to t.entries - 1 do
    if t.valid.(slot) then begin
      h := mix !h t.keys.(slot);
      h := mix !h states.(slot);
      for r = 0 to t.nregs - 1 do
        h := mix !h regs.((slot * t.nregs) + r)
      done
    end
  done;
  !h

let stats t =
  [
    ("pisa.efsm.steps", t.steps);
    ("pisa.efsm.hits", t.hits);
    ("pisa.efsm.inserts", t.inserts);
    ("pisa.efsm.fired", t.fired);
    ("pisa.efsm.guard_misses", t.guard_misses);
    ("pisa.efsm.stalls", t.stalls);
    ("pisa.efsm.evictions_timeout", t.evictions_timeout);
    ("pisa.efsm.evictions_capacity", t.evictions_capacity);
    ("pisa.efsm.sweeps", t.sweeps);
    ("pisa.efsm.occupancy", occupancy t);
    ("pisa.efsm.state_hash", state_hash t);
  ]

let width = 32

let create ?alloc ?timeout ?(state_bits = 8) ~name ~entries ~nregs ~transitions () =
  if entries <= 0 then invalid_arg "Efsm.create: entries must be positive";
  if nregs < 0 then invalid_arg "Efsm.create: nregs must be non-negative";
  (match timeout with
  | Some t when t <= 0 -> invalid_arg "Efsm.create: timeout must be positive"
  | _ -> ());
  if state_bits <= 0 || state_bits > 62 then invalid_arg "Efsm.create: state_bits must be in 1..62";
  let state_mask = if state_bits = 62 then max_int else (1 lsl state_bits) - 1 in
  List.iter (validate_transition ~nregs ~state_mask) transitions;
  (* Contention needs a cycle clock: the allocator's (the pipeline
     clock inside a switch), so programs get stall accounting without
     extra wiring. *)
  let clock = Option.bind alloc Register_alloc.clock in
  let mk_array ~name ~entries ~width =
    match alloc with
    | Some alloc -> Register_alloc.array alloc ~name ~entries ~width
    | None -> Register_array.create ~name ~entries ~width ()
  in
  let t =
    {
      entries;
      nregs;
      mask = (1 lsl width) - 1;
      timeout;
      transitions;
      clock;
      state = mk_array ~name:(name ^ ".state") ~entries ~width:state_bits;
      regs = mk_array ~name:(name ^ ".regs") ~entries:(entries * max 1 nregs) ~width;
      keys = Array.make entries 0;
      valid = Array.make entries false;
      last_access_ps = Array.make entries 0;
      last_access_cycle = Array.make entries (-1);
      slot_of_key = Hashtbl.create (2 * entries);
      free = List.init entries Fun.id;
      steps = 0;
      hits = 0;
      inserts = 0;
      fired = 0;
      guard_misses = 0;
      stalls = 0;
      evictions_timeout = 0;
      evictions_capacity = 0;
      sweeps = 0;
    }
  in
  (match alloc with
  | Some alloc -> Register_alloc.register_stats alloc ~name (fun () -> stats t)
  | None -> ());
  t

(* ---- flow table ---- *)

let clear_slot t slot =
  (* Wired clear, like Register_array.reset: eviction is table
     management, not a ported data-path access. *)
  Register_array.clear_entry t.state slot;
  for r = 0 to t.nregs - 1 do
    Register_array.clear_entry t.regs ((slot * t.nregs) + r)
  done

let release_slot t slot =
  (* Keep the free list ascending so the lowest-numbered free slot is
     always reused first — slot assignment stays deterministic. *)
  let rec ins = function
    | [] -> [ slot ]
    | s :: _ as l when slot < s -> slot :: l
    | s :: rest -> s :: ins rest
  in
  t.free <- ins t.free

let evict t slot =
  Hashtbl.remove t.slot_of_key t.keys.(slot);
  t.valid.(slot) <- false;
  t.last_access_cycle.(slot) <- -1;
  clear_slot t slot;
  release_slot t slot

let evict_lru t =
  (* Least-recently-accessed; ties break to the lowest slot so the
     policy is deterministic. *)
  let best = ref (-1) in
  for slot = t.entries - 1 downto 0 do
    if t.valid.(slot) && (!best < 0 || t.last_access_ps.(slot) <= t.last_access_ps.(!best)) then
      best := slot
  done;
  (* Every slot is either occupied or on the free list, and the free
     list was empty, so a victim always exists. *)
  assert (!best >= 0);
  evict t !best;
  t.evictions_capacity <- t.evictions_capacity + 1

let lookup_or_insert t ~now ~key =
  match Hashtbl.find_opt t.slot_of_key key with
  | Some slot ->
      t.hits <- t.hits + 1;
      (slot, false)
  | None ->
      (if t.free = [] then evict_lru t);
      let slot =
        match t.free with
        | slot :: rest ->
            t.free <- rest;
            slot
        | [] -> assert false
      in
      t.inserts <- t.inserts + 1;
      t.keys.(slot) <- key;
      t.valid.(slot) <- true;
      t.last_access_ps.(slot) <- now;
      t.last_access_cycle.(slot) <- -1;
      Hashtbl.replace t.slot_of_key key slot;
      (slot, true)

(* ---- transition engine ---- *)

let sat_cap t v = if v < 0 || v > t.mask then t.mask else v

let eval_operand t ~slot ~input = function
  | Const n -> n land t.mask
  | State -> Register_array.read t.state slot
  | Input -> input land t.mask
  | Reg r -> Register_array.read t.regs ((slot * t.nregs) + r)

let eval_cmp cmp a b =
  match cmp with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let rec eval_guard t ~slot ~input = function
  | Always -> true
  | Cmp (cmp, a, b) ->
      eval_cmp cmp (eval_operand t ~slot ~input a) (eval_operand t ~slot ~input b)
  | All gs -> List.for_all (eval_guard t ~slot ~input) gs
  | Any gs -> List.exists (eval_guard t ~slot ~input) gs

let eval_update t ~slot ~input u =
  let v = eval_operand t ~slot ~input in
  match u with
  | Set a -> v a land t.mask
  | Add (a, b) -> (v a + v b) land t.mask
  | Sub (a, b) -> (v a - v b) land t.mask
  | Sat_add (a, b) -> sat_cap t (v a + v b)
  | Sat_sub (a, b) -> max 0 (v a - v b)
  | Min (a, b) -> min (v a) (v b)
  | Max (a, b) -> max (v a) (v b)

let run_transitions t ~slot ~input =
  let cur = Register_array.read t.state slot in
  let rec find = function
    | [] -> None
    | tr :: rest ->
        if tr.from_state = cur && eval_guard t ~slot ~input tr.guard then Some tr else find rest
  in
  match find t.transitions with
  | None ->
      t.guard_misses <- t.guard_misses + 1;
      (cur, cur, false)
  | Some tr ->
      (* Parallel-update semantics: all RHSs read pre-transition
         values, then the writes land. *)
      let writes = List.map (fun a -> (a.reg, eval_update t ~slot ~input a.update)) tr.actions in
      List.iter (fun (r, v) -> Register_array.write t.regs ((slot * t.nregs) + r) v) writes;
      Register_array.write t.state slot tr.next_state;
      t.fired <- t.fired + 1;
      (cur, tr.next_state, true)

type outcome = {
  slot : int;
  prev_state : int;
  state : int;
  fired : bool;
  inserted : bool;
  stalled : bool;
}

let step t ~now ~key ~input =
  t.steps <- t.steps + 1;
  let slot, inserted = lookup_or_insert t ~now ~key in
  let stalled =
    match t.clock with
    | None -> false
    | Some clock ->
        let cycle = clock () in
        let prev = t.last_access_cycle.(slot) in
        t.last_access_cycle.(slot) <- cycle;
        prev >= 0 && cycle - prev <= Pipeline.default_depth
  in
  if stalled then t.stalls <- t.stalls + 1;
  let prev_state, state, fired = run_transitions t ~slot ~input in
  t.last_access_ps.(slot) <- now;
  { slot; prev_state; state; fired; inserted; stalled }

let step_all t ~input =
  for slot = 0 to t.entries - 1 do
    if t.valid.(slot) then ignore (run_transitions t ~slot ~input)
  done

let sweep t ~now =
  t.sweeps <- t.sweeps + 1;
  match t.timeout with
  | None -> 0
  | Some timeout ->
      (* create rejects non-positive timeouts, so [timeout > 0] here. *)
      let evicted = ref 0 in
      for slot = 0 to t.entries - 1 do
        if t.valid.(slot) && now - t.last_access_ps.(slot) >= timeout then begin
          evict t slot;
          incr evicted;
          t.evictions_timeout <- t.evictions_timeout + 1
        end
      done;
      !evicted

let unported_read arr i = (Register_array.to_array arr).(i)

let state_of (t : t) ~key =
  Option.map (fun slot -> unported_read t.state slot) (Hashtbl.find_opt t.slot_of_key key)

let regs_of (t : t) ~key =
  Option.map
    (fun slot ->
      let snapshot = Register_array.to_array t.regs in
      Array.init t.nregs (fun r -> snapshot.((slot * t.nregs) + r)))
    (Hashtbl.find_opt t.slot_of_key key)
