module Event = Devents.Event

type view = { cls : Event.cls; attr : int }
type atom = { label : string; cls : Event.cls; lo : int; hi : int }

type t =
  | Atom of atom
  | Seq of t list
  | Conj of t list
  | Disj of t list
  | Count of int * t
  | Within of Eventsim.Sim_time.t * t

let attr_base = 1 lsl 20
let clamp_attr a = if a < 0 then 0 else if a >= attr_base then attr_base - 1 else a
let encode (v : view) = (Event.cls_index v.cls * attr_base) + clamp_attr v.attr
let tick_input = Event.num_classes * attr_base

let atom ?(lo = 0) ?(hi = attr_base - 1) ~label cls =
  if clamp_attr lo > clamp_attr hi then
    invalid_arg (Printf.sprintf "Cep.Pattern.atom %s: empty attribute interval" label);
  Atom { label; cls; lo = clamp_attr lo; hi = clamp_attr hi }

let nonempty ctor = function
  | [] -> invalid_arg (Printf.sprintf "Cep.Pattern.%s: empty pattern list" ctor)
  | l -> l

let seq l = Seq (nonempty "seq" l)
let conj l = Conj (nonempty "conj" l)
let disj l = Disj (nonempty "disj" l)

let count n p =
  if n < 1 then invalid_arg "Cep.Pattern.count: n must be at least 1";
  Count (n, p)

let within w p =
  if w <= 0 then invalid_arg "Cep.Pattern.within: window must be positive";
  Within (w, p)

let ticks_of_window ~tick_period w =
  if tick_period <= 0 then invalid_arg "Cep.Pattern.ticks_of_window: tick_period must be positive";
  max 1 ((w + tick_period - 1) / tick_period)

let rec atoms = function
  | Atom a -> [ a ]
  | Seq l | Conj l | Disj l -> List.concat_map atoms l
  | Count (_, p) | Within (_, p) -> atoms p

let classes p =
  List.sort_uniq
    (fun a b -> compare (Event.cls_index a) (Event.cls_index b))
    (List.map (fun a -> a.cls) (atoms p))

let rec pp fmt p =
  let list sep l = Fmt.list ~sep:(fun fmt () -> Fmt.string fmt sep) pp fmt l in
  match p with
  | Atom a ->
      if a.lo = 0 && a.hi = attr_base - 1 then Fmt.string fmt a.label
      else Fmt.pf fmt "%s[%d..%d]" a.label a.lo a.hi
  | Seq l ->
      Fmt.string fmt "seq(";
      list "; " l;
      Fmt.string fmt ")"
  | Conj l ->
      Fmt.string fmt "conj(";
      list " & " l;
      Fmt.string fmt ")"
  | Disj l ->
      Fmt.string fmt "disj(";
      list " | " l;
      Fmt.string fmt ")"
  | Count (n, p) -> Fmt.pf fmt "count(%d, %a)" n pp p
  | Within (w, p) -> Fmt.pf fmt "within(%dps, %a)" w pp p

let to_string p = Fmt.str "%a" pp p
