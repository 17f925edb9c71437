type 'a entries =
  | Exact_entries of (int, 'a) Hashtbl.t
  | Lpm_entries of { key_bits : int; mutable rules : (int * int * 'a) list }
    (* (prefix, len, action), kept sorted by decreasing len *)

type 'a t = { name : string; entries : 'a entries }

let exact ~name = { name; entries = Exact_entries (Hashtbl.create 64) }

let lpm ~name ~key_bits =
  if key_bits <= 0 || key_bits > 62 then invalid_arg "Match_table.lpm: key_bits in 1..62";
  { name; entries = Lpm_entries { key_bits; rules = [] } }

let add_exact t ~key action =
  match t.entries with
  | Exact_entries h -> Hashtbl.replace h key action
  | Lpm_entries _ -> invalid_arg ("Match_table.add_exact on non-exact table " ^ t.name)

let remove_exact t ~key =
  match t.entries with
  | Exact_entries h -> Hashtbl.remove h key
  | Lpm_entries _ -> invalid_arg ("Match_table.remove_exact on non-exact table " ^ t.name)

let add_lpm t ~prefix ~len action =
  match t.entries with
  | Lpm_entries l ->
      if len < 0 || len > l.key_bits then invalid_arg "Match_table.add_lpm: bad prefix length";
      let rule = (prefix, len, action) in
      (* Keep longest prefixes first so lookup can take the first hit. *)
      l.rules <-
        List.stable_sort (fun (_, l1, _) (_, l2, _) -> Int.compare l2 l1) (rule :: l.rules)
  | Exact_entries _ -> invalid_arg ("Match_table.add_lpm on non-lpm table " ^ t.name)

let lookup t key =
  match t.entries with
  | Exact_entries h -> Hashtbl.find_opt h key
  | Lpm_entries l -> (
      let matches (prefix, len, _) =
        len = 0 || key lsr (l.key_bits - len) = prefix lsr (l.key_bits - len)
      in
      match List.find_opt matches l.rules with Some (_, _, a) -> Some a | None -> None)
