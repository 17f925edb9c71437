type labels = (string * string) list

module Counter = struct
  type t = { mutable v : int; on : bool ref }

  let incr c = if !(c.on) then c.v <- c.v + 1
  let set c n = if !(c.on) then c.v <- n
  let value c = c.v
end

module Gauge = struct
  type t = {
    mutable v : int;
    mutable mx : int;
    mutable mn : int;
    mutable seen : bool;
    on : bool ref;
  }

  let set g n =
    if !(g.on) then begin
      g.v <- n;
      if (not g.seen) || n > g.mx then g.mx <- n;
      if (not g.seen) || n < g.mn then g.mn <- n;
      g.seen <- true
    end

  let max_seen g = if g.seen then g.mx else 0
  let min_seen g = if g.seen then g.mn else 0
end

module Summary = struct
  type t = { w : Stats.Welford.t; on : bool ref }

  let observe t x = if !(t.on) then Stats.Welford.add t.w x
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histo of Stats.Histogram.t
  | I_summary of Summary.t

type metric = { m_key : string; m_name : string; m_labels : labels; instrument : instrument }

type t = {
  on : bool ref;
  tbl : (string, metric) Hashtbl.t;
  mutable order : metric list;  (* every series, newest first *)
}

let create ?(enabled = true) () = { on = ref enabled; tbl = Hashtbl.create 64; order = [] }
let is_enabled t = !(t.on)
let on_ref t = t.on

let canonical labels =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    labels

(* A series' identity as one string whose byte order is the export
   order: the name, then each label's key and value, every component
   with its NULs escaped (as NUL 0xff) and closed by two NULs. A
   component thus sorts before its extensions, and so does a label
   list, exactly as comparing the (name, labels) structure would. *)
let key name labels =
  let buf = Buffer.create 64 in
  let add s =
    if String.contains s '\x00' then
      String.iter
        (fun c ->
          Buffer.add_char buf c;
          if c = '\x00' then Buffer.add_char buf '\xff')
        s
    else Buffer.add_string buf s;
    Buffer.add_string buf "\x00\x00"
  in
  add name;
  List.iter
    (fun (k, v) ->
      add k;
      add v)
    labels;
  Buffer.contents buf

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histo _ -> "histogram"
  | I_summary _ -> "summary"

(* Register under (name, labels); an existing series of the same kind
   is shared, a different kind is a collision. *)
let register t ~name ~labels ~make =
  let labels = canonical labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some m -> m.instrument
  | None ->
      let m = { m_key = k; m_name = name; m_labels = labels; instrument = make () } in
      Hashtbl.add t.tbl k m;
      t.order <- m :: t.order;
      m.instrument

let collision name got want =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, not a %s" name (kind_name got) want)

let counter t ?(labels = []) name =
  match register t ~name ~labels ~make:(fun () -> I_counter { Counter.v = 0; on = t.on }) with
  | I_counter c -> c
  | other -> collision name other "counter"

let gauge t ?(labels = []) name =
  match
    register t ~name ~labels ~make:(fun () ->
        I_gauge { Gauge.v = 0; mx = 0; mn = 0; seen = false; on = t.on })
  with
  | I_gauge g -> g
  | other -> collision name other "gauge"

let summary t ?(labels = []) name =
  match
    register t ~name ~labels ~make:(fun () ->
        I_summary { Summary.w = Stats.Welford.create (); on = t.on })
  with
  | I_summary s -> s
  | other -> collision name other "summary"

let attach_histogram t ?(labels = []) name h =
  match register t ~name ~labels ~make:(fun () -> I_histo h) with
  | I_histo _ -> ()
  | other -> collision name other "histogram"

type value =
  | Counter_v of int
  | Gauge_v of { last : int; max : int; min : int }
  | Histo_v of { count : int; mean : float; p50 : float; p99 : float; max : float }
  | Summary_v of { count : int; mean : float; std : float; min : float; max : float }

type sample = { name : string; labels : labels; value : value }

(* Exported floats must be finite and deterministic: empty series report
   zeros rather than nan/infinity. *)
let finite x = if Float.is_nan x || x = infinity || x = neg_infinity then 0. else x

let value_of = function
  | I_counter c -> Counter_v c.Counter.v
  | I_gauge g -> Gauge_v { last = g.Gauge.v; max = Gauge.max_seen g; min = Gauge.min_seen g }
  | I_histo h ->
      let count = Stats.Histogram.count h in
      if count = 0 then Histo_v { count = 0; mean = 0.; p50 = 0.; p99 = 0.; max = 0. }
      else
        Histo_v
          {
            count;
            mean = finite (Stats.Histogram.mean h);
            p50 = finite (Stats.Histogram.percentile h 0.5);
            p99 = finite (Stats.Histogram.percentile h 0.99);
            max = finite (Stats.Histogram.max_seen h);
          }
  | I_summary { Summary.w; _ } ->
      let count = Stats.Welford.count w in
      if count = 0 then Summary_v { count = 0; mean = 0.; std = 0.; min = 0.; max = 0. }
      else
        Summary_v
          {
            count;
            mean = finite (Stats.Welford.mean w);
            std = finite (Stats.Welford.std w);
            min = finite (Stats.Welford.min w);
            max = finite (Stats.Welford.max w);
          }

let sample_of m = { name = m.m_name; labels = m.m_labels; value = value_of m.instrument }

(* The registry's series in export order. The sort starts from
   registration order, which is allocation order, so that it compares
   neighbours in memory first: sorting 38,720 records took a quarter of
   the time it took from a shuffled order. *)
let sorted t =
  let series = Array.of_list t.order in
  Array.stable_sort (fun a b -> String.compare a.m_key b.m_key) series;
  series

let snapshot t = Array.fold_right (fun m acc -> sample_of m :: acc) (sorted t) []

let cardinality t = Hashtbl.length t.tbl

let find_value t ?(labels = []) name =
  let k = key name (canonical labels) in
  Option.map (fun m -> value_of m.instrument) (Hashtbl.find_opt t.tbl k)

(* Visits several runs of series, each in export order, in merged
   export order: [f j i] for series [i] of run [j]. The merge compares
   the runs' keys, [keys.(j)], and reads [series.(j)] only to name a
   series found in two runs. Runs come from distinct registries (one
   per simulation shard, and shards own disjoint switches), so such a
   series is a partitioning bug, not something to silently sum. *)
let merge keys series f =
  let pos = Array.make (Array.length keys) 0 in
  let rec next () =
    let best = ref (-1) in
    for j = 0 to Array.length keys - 1 do
      if pos.(j) < Array.length keys.(j) then
        if !best < 0 then best := j
        else
          let c = String.compare keys.(j).(pos.(j)) keys.(!best).(pos.(!best)) in
          if c = 0 then begin
            let m = series.(j).(pos.(j)) in
            let label (k, v) = Printf.sprintf "%s=%S" k v in
            invalid_arg
              (Printf.sprintf "Metrics: series %S {%s} registered by several registries" m.m_name
                 (String.concat ", " (List.map label m.m_labels)))
          end
          else if c < 0 then best := j
    done;
    let j = !best in
    if j >= 0 then begin
      f j pos.(j);
      pos.(j) <- pos.(j) + 1;
      next ()
    end
  in
  next ()

(* --- export --- *)

let escaped c = c = '"' || c = '\\' || Char.code c < 0x20
let rec plain s i =
  i = String.length s || ((not (escaped (String.unsafe_get s i))) && plain s (i + 1))

let add_escaped buf s =
  if plain s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* What [Printf]'s "%.17g" calls, without parsing the format each time. *)
external format_float : string -> float -> string = "caml_format_float"

let json_float x = format_float "%.17g" (finite x)

let rec add_labels buf sep = function
  | [] -> ()
  | (k, v) :: rest ->
      Buffer.add_string buf sep;
      add_escaped buf k;
      Buffer.add_string buf "\": \"";
      add_escaped buf v;
      Buffer.add_char buf '"';
      add_labels buf ",  \"" rest

let add_field buf name =
  Buffer.add_string buf ", \"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\": "

let add_int_field buf name v =
  add_field buf name;
  add_int buf v

let add_float_field buf name x =
  add_field buf name;
  Buffer.add_string buf (json_float x)

(* One series as its line of the JSON document, preceded by the ",\n"
   that separates it from the line before. *)
let add_line buf m =
  Buffer.add_string buf ",\n    { \"name\": \"";
  add_escaped buf m.m_name;
  Buffer.add_string buf "\", \"labels\": {";
  add_labels buf " \"" m.m_labels;
  Buffer.add_string buf (match m.m_labels with [] -> "}, \"kind\": \"" | _ -> " }, \"kind\": \"");
  (match value_of m.instrument with
  | Counter_v v ->
      Buffer.add_string buf "counter\"";
      add_int_field buf "value" v
  | Gauge_v { last; max; min } ->
      Buffer.add_string buf "gauge\"";
      add_int_field buf "value" last;
      add_int_field buf "max" max;
      add_int_field buf "min" min
  | Histo_v { count; mean; p50; p99; max } ->
      Buffer.add_string buf "histogram\"";
      add_int_field buf "count" count;
      add_float_field buf "mean" mean;
      add_float_field buf "p50" p50;
      add_float_field buf "p99" p99;
      add_float_field buf "max" max
  | Summary_v { count; mean; std; min; max } ->
      Buffer.add_string buf "summary\"";
      add_int_field buf "count" count;
      add_float_field buf "mean" mean;
      add_float_field buf "std" std;
      add_float_field buf "min" min;
      add_float_field buf "max" max);
  Buffer.add_string buf " }"

(* Series [i] of [series], of key [keys.(i)], is [text] from
   [starts.(i)] to [stops.(i)]. *)
type rendered = {
  keys : string array;
  series : metric array;
  text : Buffer.t;
  starts : int array;
  stops : int array;
}

(* Renders in registration order, which reads the instruments in the
   order they were allocated, then sorts the lines' places. *)
let render t =
  let regd = Array.of_list t.order in
  let n = Array.length regd in
  let text = Buffer.create ((144 * n) + 1) (* a fabric's lines average 131 bytes *) in
  let ends = Array.make (n + 1) 0 in
  Array.iteri
    (fun i m ->
      add_line text m;
      ends.(i + 1) <- Buffer.length text)
    regd;
  let regkeys = Array.map (fun m -> m.m_key) regd in
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare regkeys.(i) regkeys.(j)) perm;
  {
    keys = Array.map (fun i -> regkeys.(i)) perm;
    series = Array.map (fun i -> regd.(i)) perm;
    text;
    starts = Array.map (fun i -> ends.(i)) perm;
    stops = Array.map (fun i -> ends.(i + 1)) perm;
  }

let header = "{\n  \"metrics\": [\n"
let footer = "\n  ]\n}\n"

(* The merged lines, minus the first one's separator, between [header]
   and [footer]. *)
let join rendered =
  let rs = Array.of_list rendered in
  let count = Array.fold_left (fun acc r -> acc + Array.length r.keys) 0 rs in
  let text = Array.fold_left (fun acc r -> acc + Buffer.length r.text) 0 rs in
  let skip = ref (if count > 0 then 2 else 0) in
  let out = Bytes.create (String.length header + text - !skip + String.length footer) in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 out !pos (String.length s);
    pos := !pos + String.length s
  in
  put header;
  merge
    (Array.map (fun r -> r.keys) rs)
    (Array.map (fun r -> r.series) rs)
    (fun j i ->
      let r = rs.(j) in
      let from = r.starts.(i) + !skip in
      skip := 0;
      Buffer.blit r.text from out !pos (r.stops.(i) - from);
      pos := !pos + r.stops.(i) - from);
  put footer;
  Bytes.unsafe_to_string out

let to_json t = join [ render t ]

let write_string ~path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write_json t ~path = write_string ~path (to_json t)
