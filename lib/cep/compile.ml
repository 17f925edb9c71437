module Efsm = Pisa.Efsm
module Event = Devents.Event

(* Pattern annotated with register indices: one counter per Count, one
   countdown per Within, assigned in pre-order. *)
type node =
  | NAtom of Pattern.atom
  | NSeq of node array
  | NConj of node array
  | NDisj of node array
  | NCount of int * int * node  (* n, counter reg *)
  | NWithin of int * int * node  (* window ticks, countdown reg *)

let annotate ~tick_period pat =
  let next = ref 0 in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let rec go p =
    match (p : Pattern.t) with
    | Pattern.Atom a -> NAtom a
    | Pattern.Seq l -> NSeq (Array.of_list (List.map go l))
    | Pattern.Conj l -> NConj (Array.of_list (List.map go l))
    | Pattern.Disj l -> NDisj (Array.of_list (List.map go l))
    | Pattern.Count (n, p) ->
        let r = fresh () in
        NCount (n, r, go p)
    | Pattern.Within (w, p) ->
        let r = fresh () in
        NWithin (Pattern.ticks_of_window ~tick_period w, r, go p)
  in
  let root = go pat in
  (root, !next)

let rec subtree_regs = function
  | NAtom _ -> []
  | NSeq l | NConj l | NDisj l -> List.concat_map subtree_regs (Array.to_list l)
  | NCount (_, r, p) -> r :: subtree_regs p
  | NWithin (_, r, p) -> r :: subtree_regs p

let reset_actions node =
  List.map (fun r -> { Efsm.reg = r; update = Efsm.Set (Efsm.Const 0) }) (subtree_regs node)

(* Progress configuration: the structural part of a detector instance's
   state. Counter/countdown values live in registers, not here. *)
type prog =
  | PAtom
  | PSeq of int * prog
  | PConj of (bool * prog) array  (* (branch done?, branch progress) *)
  | PDisj of prog array
  | PCount of prog
  | PWithin of bool * prog  (* (countdown armed?, progress) *)

let rec initial = function
  | NAtom _ -> PAtom
  | NSeq l -> PSeq (0, initial l.(0))
  | NConj l -> PConj (Array.map (fun n -> (false, initial n)) l)
  | NDisj l -> PDisj (Array.map initial l)
  | NCount (_, _, p) -> PCount (initial p)
  | NWithin (_, _, p) -> PWithin (false, initial p)

(* One way the frontier can consume an atom occurrence: extra register
   guards, register updates, and the resulting configuration (None =
   the node completed). Alternatives are ordered specific-first. *)
type alt = { guards : Efsm.guard list; actions : Efsm.action list; out : prog option }

let with_arr arr i v =
  let a = Array.copy arr in
  a.(i) <- v;
  a

(* Frontier of a node under a configuration: every atom occurrence that
   can consume the next event, left to right — the interpreter's scan
   order, which first-match-wins row order must reproduce. *)
let rec frontier node prog : (Pattern.atom * alt list) list =
  match (node, prog) with
  | NAtom a, PAtom -> [ (a, [ { guards = []; actions = []; out = None } ]) ]
  | NSeq l, PSeq (i, pi) ->
      let map_alt alt =
        match alt.out with
        | Some p' -> { alt with out = Some (PSeq (i, p')) }
        | None ->
            if i = Array.length l - 1 then alt (* the whole Seq completes; parent resets *)
            else
              {
                alt with
                actions = alt.actions @ reset_actions l.(i);
                out = Some (PSeq (i + 1, initial l.(i + 1)));
              }
      in
      List.map (fun (a, alts) -> (a, List.map map_alt alts)) (frontier l.(i) pi)
  | NConj l, PConj branches ->
      List.concat
        (List.init (Array.length l) (fun j ->
             let done_j, pj = branches.(j) in
             if done_j then []
             else
               let others_done =
                 Array.for_all Fun.id (Array.mapi (fun k (d, _) -> k = j || d) branches)
               in
               let map_alt alt =
                 match alt.out with
                 | Some p' -> { alt with out = Some (PConj (with_arr branches j (false, p'))) }
                 | None ->
                     if others_done then alt (* last branch home: Conj completes *)
                     else
                       {
                         alt with
                         actions = alt.actions @ reset_actions l.(j);
                         out = Some (PConj (with_arr branches j (true, initial l.(j))));
                       }
               in
               List.map (fun (a, alts) -> (a, List.map map_alt alts)) (frontier l.(j) pj)))
  | NDisj l, PDisj progs ->
      List.concat
        (List.init (Array.length l) (fun j ->
             let map_alt alt =
               match alt.out with
               | Some p' -> { alt with out = Some (PDisj (with_arr progs j p')) }
               | None -> alt (* first branch to complete wins; parent resets all *)
             in
             List.map (fun (a, alts) -> (a, List.map map_alt alts)) (frontier l.(j) progs.(j))))
  | NCount (n, c, p), PCount pp ->
      let map_alts alts =
        List.concat_map
          (fun alt ->
            match alt.out with
            | Some p' -> [ { alt with out = Some (PCount p') } ]
            | None ->
                (* One repetition done: either the n-th (complete,
                   guarded on the counter) or not (reset the
                   sub-pattern, bump the counter). *)
                [
                  {
                    guards = alt.guards @ [ Efsm.Cmp (Efsm.Ge, Efsm.Reg c, Efsm.Const (n - 1)) ];
                    actions = alt.actions;
                    out = None;
                  };
                  {
                    guards = alt.guards;
                    actions =
                      alt.actions @ reset_actions p
                      @ [ { Efsm.reg = c; update = Efsm.Add (Efsm.Reg c, Efsm.Const 1) } ];
                    out = Some (PCount (initial p));
                  };
                ])
          alts
      in
      List.map (fun (a, alts) -> (a, map_alts alts)) (frontier p pp)
  | NWithin (w, r, p), PWithin (armed, pp) ->
      let arm = if armed then [] else [ { Efsm.reg = r; update = Efsm.Set (Efsm.Const w) } ] in
      let map_alt alt =
        match alt.out with
        | Some p' -> { alt with actions = alt.actions @ arm; out = Some (PWithin (true, p')) }
        | None -> alt (* completed within the window; parent resets the countdown *)
      in
      List.map (fun (a, alts) -> (a, List.map map_alt alts)) (frontier p pp)
  | _ -> assert false

(* Armed windows of a configuration, in pre-order (outermost first):
   countdown register, subtree registers to clear on expiry, and the
   configuration after the region resets. *)
let rec armed_windows node prog (rebuild : prog -> prog) : (int * int list * prog) list =
  match (node, prog) with
  | NAtom _, _ -> []
  | NSeq l, PSeq (i, pi) -> armed_windows l.(i) pi (fun p' -> rebuild (PSeq (i, p')))
  | NConj l, PConj branches ->
      List.concat
        (List.init (Array.length l) (fun j ->
             let done_j, pj = branches.(j) in
             if done_j then []
             else
               armed_windows l.(j) pj (fun p' -> rebuild (PConj (with_arr branches j (false, p'))))))
  | NDisj l, PDisj progs ->
      List.concat
        (List.init (Array.length l) (fun j ->
             armed_windows l.(j) progs.(j) (fun p' -> rebuild (PDisj (with_arr progs j p')))))
  | NCount (_, _, p), PCount pp -> armed_windows p pp (fun p' -> rebuild (PCount p'))
  | NWithin (_, r, p), PWithin (true, pp) ->
      (r, r :: subtree_regs p, rebuild (PWithin (false, initial p)))
      :: armed_windows p pp (fun p' -> rebuild (PWithin (true, p')))
  | NWithin (_, _, p), PWithin (false, pp) ->
      armed_windows p pp (fun p' -> rebuild (PWithin (false, p')))
  | _ -> assert false

type t = {
  pattern : Pattern.t;
  tick_period : Eventsim.Sim_time.t;
  nregs : int;
  states : int;
  accept : int;
  state_bits : int;
  transitions : Efsm.transition list;
}

let max_states = 512

let atom_guard (a : Pattern.atom) =
  let base = Event.cls_index a.cls * Pattern.attr_base in
  Efsm.All
    [
      Efsm.Cmp (Efsm.Ge, Efsm.Input, Efsm.Const (base + a.lo));
      Efsm.Cmp (Efsm.Le, Efsm.Input, Efsm.Const (base + a.hi));
    ]

let guard_of atom extra =
  match extra with
  | [] -> atom_guard atom
  | gs -> Efsm.All (atom_guard atom :: gs)

let tick_guard extra =
  let g = Efsm.Cmp (Efsm.Eq, Efsm.Input, Efsm.Const Pattern.tick_input) in
  match extra with [] -> g | gs -> Efsm.All (g :: gs)

let compile ?(tick_period = Eventsim.Sim_time.us 1) pat =
  let root, nregs = annotate ~tick_period pat in
  let all_resets = reset_actions root in
  (* State 0 is the initial configuration, state 1 the accept state
     (reserved up front so completion rows can sit at their frontier
     position — first-match-wins needs them in scan order). Explored
     configurations are interned in discovery order from 2. *)
  let accept = 1 in
  let ids : (prog, int) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 2 in
  let queue = Queue.create () in
  let intern p =
    match Hashtbl.find_opt ids p with
    | Some id -> id
    | None ->
        let id = if Hashtbl.length ids = 0 then 0 else !next_id in
        if id > max_states then
          invalid_arg
            (Printf.sprintf "Cep.Compile: pattern %s exceeds %d states"
               (Pattern.to_string pat) max_states);
        if id > 0 then incr next_id;
        Hashtbl.replace ids p id;
        Queue.push (id, p) queue;
        id
  in
  let init = initial root in
  ignore (intern init : int);
  let rows = ref [] in
  let add ~from ~guard ~next ~actions =
    rows := { Efsm.from_state = from; guard; next_state = next; actions } :: !rows
  in
  while not (Queue.is_empty queue) do
    let from, p = Queue.pop queue in
    (* Event rows, in frontier order; completions fire into accept with
       every register cleared. *)
    List.iter
      (fun (a, alts) ->
        List.iter
          (fun alt ->
            match alt.out with
            | Some p' ->
                add ~from ~guard:(guard_of a alt.guards) ~next:(intern p') ~actions:alt.actions
            | None ->
                add ~from ~guard:(guard_of a alt.guards) ~next:accept
                  ~actions:(alt.actions @ all_resets))
          alts)
      (frontier root p);
    (* Tick rows: expiry per armed window (outermost first), then the
       decrement fallback. *)
    let armed = armed_windows root p Fun.id in
    if armed <> [] then begin
      let armed_regs = List.map (fun (r, _, _) -> r) armed in
      List.iter
        (fun (r, region_regs, p') ->
          let resets =
            List.map (fun reg -> { Efsm.reg; update = Efsm.Set (Efsm.Const 0) }) region_regs
          in
          let decrements =
            List.filter_map
              (fun reg ->
                if List.mem reg region_regs then None
                else Some { Efsm.reg; update = Efsm.Sat_sub (Efsm.Reg reg, Efsm.Const 1) })
              armed_regs
          in
          add ~from
            ~guard:(tick_guard [ Efsm.Cmp (Efsm.Le, Efsm.Reg r, Efsm.Const 1) ])
            ~next:(intern p') ~actions:(resets @ decrements))
        armed;
      add ~from ~guard:(tick_guard [])
        ~next:from
        ~actions:
          (List.map
             (fun reg -> { Efsm.reg; update = Efsm.Sat_sub (Efsm.Reg reg, Efsm.Const 1) })
             armed_regs)
    end
  done;
  (* The accept state behaves like a fresh start: duplicate state 0's
     rows (the initial configuration has no armed windows, so these are
     all event rows). *)
  let transitions = List.rev !rows in
  let accept_rows =
    List.filter_map
      (fun tr ->
        if tr.Efsm.from_state = 0 then Some { tr with Efsm.from_state = accept } else None)
      transitions
  in
  let transitions = transitions @ accept_rows in
  let states = Hashtbl.length ids + 1 in
  let max_label = max accept (!next_id - 1) in
  let rec bits n = if n <= 1 then 1 else 1 + bits (n / 2) in
  {
    pattern = pat;
    tick_period;
    nregs;
    states;
    accept;
    state_bits = bits max_label;
    transitions;
  }

let efsm ?alloc ?timeout ?(entries = 1024) ~name t () =
  Efsm.create ?alloc ?timeout ~state_bits:t.state_bits ~name ~entries ~nregs:t.nregs
    ~transitions:t.transitions ()

let is_match t (o : Efsm.outcome) = o.Efsm.fired && o.Efsm.state = t.accept
