open Cep

(* Progress with counters and countdowns stored inline — deliberately a
   different mechanism from the compiled automaton's register bank, so
   conformance between the two is a real check on the compiler. *)
type iprog =
  | IAtom
  | ISeq of int * iprog
  | IConj of (bool * iprog) array
  | IDisj of iprog array
  | ICount of int * iprog  (* completed repetitions *)
  | IWithin of int option * iprog  (* remaining ticks when armed *)

type t = {
  pattern : Pattern.t;
  tick_period : Eventsim.Sim_time.t;
  mutable prog : iprog;
}

let rec init (p : Pattern.t) =
  match p with
  | Pattern.Atom _ -> IAtom
  | Pattern.Seq l -> ISeq (0, init (List.hd l))
  | Pattern.Conj l -> IConj (Array.of_list (List.map (fun p -> (false, init p)) l))
  | Pattern.Disj l -> IDisj (Array.of_list (List.map init l))
  | Pattern.Count (_, p) -> ICount (0, init p)
  | Pattern.Within (_, p) -> IWithin (None, init p)

let create ?(tick_period = Eventsim.Sim_time.us 1) pattern =
  { pattern; tick_period; prog = init pattern }

let with_arr arr i v =
  let a = Array.copy arr in
  a.(i) <- v;
  a

let nth l i = List.nth l i

(* Consume one event at the frontier, scanning left to right — the same
   order the compiler emits rows in. [None] = not consumed (no frontier
   atom matches); [Some None] = the node completed; [Some (Some p')] =
   progressed. *)
(* An event matches an atom when its class is the atom's and its
   attribute, clamped to [0, Pattern.attr_base), lies within the
   atom's bounds (clamped when the atom was built). *)
let atom_matches (a : Pattern.atom) (v : Pattern.view) =
  let attr = max 0 (min (Pattern.attr_base - 1) v.attr) in
  Devents.Event.cls_equal a.cls v.cls && attr >= a.lo && attr <= a.hi

let rec consume (pat : Pattern.t) prog v ~tick_period : iprog option option =
  match (pat, prog) with
  | Pattern.Atom a, IAtom -> if atom_matches a v then Some None else None
  | Pattern.Seq l, ISeq (i, pi) -> (
      match consume (nth l i) pi v ~tick_period with
      | None -> None
      | Some (Some p') -> Some (Some (ISeq (i, p')))
      | Some None ->
          if i = List.length l - 1 then Some None
          else Some (Some (ISeq (i + 1, init (nth l (i + 1))))))
  | Pattern.Conj l, IConj branches ->
      let rec scan j =
        if j = Array.length branches then None
        else
          let done_j, pj = branches.(j) in
          if done_j then scan (j + 1)
          else
            match consume (nth l j) pj v ~tick_period with
            | None -> scan (j + 1)
            | Some (Some p') -> Some (Some (IConj (with_arr branches j (false, p'))))
            | Some None ->
                let others_done =
                  Array.for_all Fun.id (Array.mapi (fun k (d, _) -> k = j || d) branches)
                in
                if others_done then Some None
                else Some (Some (IConj (with_arr branches j (true, init (nth l j)))))
      in
      scan 0
  | Pattern.Disj l, IDisj progs ->
      let rec scan j =
        if j = Array.length progs then None
        else
          match consume (nth l j) progs.(j) v ~tick_period with
          | None -> scan (j + 1)
          | Some (Some p') -> Some (Some (IDisj (with_arr progs j p')))
          | Some None -> Some None
      in
      scan 0
  | Pattern.Count (n, p), ICount (cnt, pp) -> (
      match consume p pp v ~tick_period with
      | None -> None
      | Some (Some p') -> Some (Some (ICount (cnt, p')))
      | Some None ->
          if cnt >= n - 1 then Some None else Some (Some (ICount (cnt + 1, init p))))
  | Pattern.Within (w, p), IWithin (rem, pp) -> (
      match consume p pp v ~tick_period with
      | None -> None
      | Some None -> Some None
      | Some (Some p') ->
          let rem =
            match rem with
            | Some _ -> rem
            | None -> Some (Pattern.ticks_of_window ~tick_period w)
          in
          Some (Some (IWithin (rem, p'))))
  | _ -> assert false

let feed t v =
  match consume t.pattern t.prog v ~tick_period:t.tick_period with
  | None -> false
  | Some (Some p') ->
      t.prog <- p';
      false
  | Some None ->
      t.prog <- init t.pattern;
      true

(* Tick: mirror the compiled tick rows exactly. Armed windows are
   scanned in pre-order; the FIRST with at most one tick remaining
   expires — its region resets — and every other armed window (outside
   the expired region) decrements, flooring at zero. With no expiry,
   all armed windows decrement. *)
let tick t =
  (* Pass 1: pre-order index of the first expiring armed window. *)
  let idx = ref (-1) in
  let expired = ref (-1) in
  let rec scan (pat : Pattern.t) prog =
    if !expired < 0 then
      match (pat, prog) with
      | Pattern.Atom _, IAtom -> ()
      | Pattern.Seq l, ISeq (i, pi) -> scan (nth l i) pi
      | Pattern.Conj l, IConj branches ->
          Array.iteri (fun j (done_j, pj) -> if not done_j then scan (nth l j) pj) branches
      | Pattern.Disj l, IDisj progs -> Array.iteri (fun j pj -> scan (nth l j) pj) progs
      | Pattern.Count (_, p), ICount (_, pp) -> scan p pp
      | Pattern.Within (_, p), IWithin (rem, pp) -> (
          match rem with
          | Some r ->
              incr idx;
              if r <= 1 && !expired < 0 then expired := !idx else scan p pp
          | None -> scan p pp)
      | _ -> assert false
  in
  scan t.pattern t.prog;
  (* Pass 2: rebuild — reset the expired region (skipping its inside),
     decrement every other armed window. Traversal order matches pass
     1, so the running index lines up. *)
  let k = !expired in
  let idx = ref (-1) in
  let rec rebuild (pat : Pattern.t) prog =
    match (pat, prog) with
    | Pattern.Atom _, IAtom -> IAtom
    | Pattern.Seq l, ISeq (i, pi) -> ISeq (i, rebuild (nth l i) pi)
    | Pattern.Conj l, IConj branches ->
        IConj
          (Array.mapi
             (fun j (done_j, pj) -> if done_j then (done_j, pj) else (done_j, rebuild (nth l j) pj))
             branches)
    | Pattern.Disj l, IDisj progs -> IDisj (Array.mapi (fun j pj -> rebuild (nth l j) pj) progs)
    | Pattern.Count (n, p), ICount (cnt, pp) ->
        ignore n;
        ICount (cnt, rebuild p pp)
    | Pattern.Within (_, p), IWithin (rem, pp) -> (
        match rem with
        | Some r ->
            incr idx;
            if !idx = k then IWithin (None, init p) (* region expires; inside untouched *)
            else IWithin (Some (max 0 (r - 1)), rebuild p pp)
        | None -> IWithin (None, rebuild p pp))
    | _ -> assert false
  in
  t.prog <- rebuild t.pattern t.prog
