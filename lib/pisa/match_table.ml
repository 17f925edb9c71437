type kind = Exact | Lpm | Ternary

type 'a entries =
  | Exact_entries of (int, 'a) Hashtbl.t
  | Lpm_entries of { key_bits : int; mutable rules : (int * int * 'a) list }
    (* (prefix, len, action), kept sorted by decreasing len *)
  | Ternary_entries of { mutable rules : (int * int * int * int * 'a) list }
    (* (value, mask, priority, insertion_seq, action), sorted best-first *)

type 'a t = {
  name : string;
  entries : 'a entries;
  mutable default : 'a option;
  mutable lookups : int;
  mutable hits : int;
  mutable next_seq : int;
}

let make name entries =
  { name; entries; default = None; lookups = 0; hits = 0; next_seq = 0 }

let exact ~name = make name (Exact_entries (Hashtbl.create 64))

let lpm ~name ~key_bits =
  if key_bits <= 0 || key_bits > 62 then invalid_arg "Match_table.lpm: key_bits in 1..62";
  make name (Lpm_entries { key_bits; rules = [] })

let ternary ~name = make name (Ternary_entries { rules = [] })
let name t = t.name

let kind t =
  match t.entries with
  | Exact_entries _ -> Exact
  | Lpm_entries _ -> Lpm
  | Ternary_entries _ -> Ternary

let size t =
  match t.entries with
  | Exact_entries h -> Hashtbl.length h
  | Lpm_entries l -> List.length l.rules
  | Ternary_entries l -> List.length l.rules

let set_default t a = t.default <- Some a

let add_exact t ~key action =
  match t.entries with
  | Exact_entries h -> Hashtbl.replace h key action
  | Lpm_entries _ | Ternary_entries _ ->
      invalid_arg ("Match_table.add_exact on non-exact table " ^ t.name)

let remove_exact t ~key =
  match t.entries with
  | Exact_entries h -> Hashtbl.remove h key
  | Lpm_entries _ | Ternary_entries _ ->
      invalid_arg ("Match_table.remove_exact on non-exact table " ^ t.name)

let add_lpm t ~prefix ~len action =
  match t.entries with
  | Lpm_entries l ->
      if len < 0 || len > l.key_bits then invalid_arg "Match_table.add_lpm: bad prefix length";
      let rule = (prefix, len, action) in
      (* Keep longest prefixes first so lookup can take the first hit. *)
      l.rules <-
        List.stable_sort (fun (_, l1, _) (_, l2, _) -> Int.compare l2 l1) (rule :: l.rules)
  | Exact_entries _ | Ternary_entries _ ->
      invalid_arg ("Match_table.add_lpm on non-lpm table " ^ t.name)

let add_ternary t ?(priority = 0) ~value ~mask action =
  match t.entries with
  | Ternary_entries l ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      let rule = (value, mask, priority, seq, action) in
      let better (_, _, p1, s1, _) (_, _, p2, s2, _) =
        if p1 <> p2 then Int.compare p2 p1 else Int.compare s1 s2
      in
      l.rules <- List.stable_sort better (rule :: l.rules)
  | Exact_entries _ | Lpm_entries _ ->
      invalid_arg ("Match_table.add_ternary on non-ternary table " ^ t.name)

let lookup t key =
  t.lookups <- t.lookups + 1;
  let found =
    match t.entries with
    | Exact_entries h -> Hashtbl.find_opt h key
    | Lpm_entries l ->
        let matches (prefix, len, _) =
          len = 0 || key lsr (l.key_bits - len) = prefix lsr (l.key_bits - len)
        in
        (match List.find_opt matches l.rules with
        | Some (_, _, a) -> Some a
        | None -> None)
    | Ternary_entries l -> (
        match List.find_opt (fun (v, m, _, _, _) -> key land m = v land m) l.rules with
        | Some (_, _, _, _, a) -> Some a
        | None -> None)
  in
  match found with
  | Some _ ->
      t.hits <- t.hits + 1;
      found
  | None -> t.default

let lookups t = t.lookups
let hits t = t.hits

let clear t =
  match t.entries with
  | Exact_entries h -> Hashtbl.reset h
  | Lpm_entries l -> l.rules <- []
  | Ternary_entries l -> l.rules <- []
