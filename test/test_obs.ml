(* Tests for the observability layer (Obs.Metrics). *)

module M = Obs.Metrics

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_counter () =
  let reg = M.create () in
  let c = M.counter reg "requests" in
  for _ = 1 to 5 do
    M.Counter.incr c
  done;
  Alcotest.(check int) "value" 5 (M.Counter.value c);
  M.Counter.set c 42;
  Alcotest.(check int) "set is absolute" 42 (M.Counter.value c)

let test_gauge () =
  let reg = M.create () in
  let g = M.gauge reg "depth" in
  M.Gauge.set g 3;
  M.Gauge.set g 9;
  M.Gauge.set g 5;
  match M.find_value reg "depth" with
  | Some (M.Gauge_v { last; max; min }) ->
      Alcotest.(check int) "last" 5 last;
      Alcotest.(check int) "hwm" 9 max;
      Alcotest.(check int) "lwm" 3 min
  | _ -> Alcotest.fail "expected Gauge_v"

let test_histogram_summary () =
  let reg = M.create () in
  let h = Stats.Histogram.log2 ~max_exponent:40 in
  M.attach_histogram reg "latency" h;
  let s = M.summary reg "load" in
  for i = 1 to 100 do
    Stats.Histogram.add h (float_of_int i);
    M.Summary.observe s (float_of_int i)
  done;
  (match M.find_value reg "latency" with
  | Some (M.Histo_v { count; p50; p99; _ }) ->
      Alcotest.(check int) "histo count" 100 count;
      Alcotest.(check bool) "histo p99 above p50" true (p99 >= p50)
  | _ -> Alcotest.fail "expected Histo_v");
  match M.find_value reg "load" with
  | Some (M.Summary_v { count; mean; _ }) ->
      Alcotest.(check int) "summary count" 100 count;
      Alcotest.(check (float 1e-6)) "summary mean" 50.5 mean
  | _ -> Alcotest.fail "expected Summary_v"

let test_registration_idempotent () =
  let reg = M.create () in
  let a = M.counter reg ~labels:[ ("port", "1"); ("switch", "0") ] "tx" in
  (* Same series, labels in a different order: shared instrument. *)
  let b = M.counter reg ~labels:[ ("switch", "0"); ("port", "1") ] "tx" in
  M.Counter.incr a;
  M.Counter.incr b;
  Alcotest.(check int) "shared series" 2 (M.Counter.value a);
  Alcotest.(check int) "one series registered" 1 (M.cardinality reg);
  (* Different labels: a distinct series. *)
  let c = M.counter reg ~labels:[ ("port", "2") ] "tx" in
  M.Counter.incr c;
  Alcotest.(check int) "distinct series" 1 (M.Counter.value c);
  Alcotest.(check int) "two series registered" 2 (M.cardinality reg)

let test_kind_collision () =
  let reg = M.create () in
  ignore (M.counter reg "clash");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"clash\" already registered as a counter, not a gauge")
    (fun () -> ignore (M.gauge reg "clash"))

let test_disabled_noop () =
  let reg = M.create ~enabled:false () in
  let c = M.counter reg "c" in
  let g = M.gauge reg "g" in
  let s = M.summary reg "s" in
  M.Counter.incr c;
  M.Counter.set c 10;
  M.Gauge.set g 7;
  M.Summary.observe s 1.0;
  Alcotest.(check int) "counter untouched" 0 (M.Counter.value c);
  (match M.find_value reg "g" with
  | Some (M.Gauge_v { last; max; _ }) ->
      Alcotest.(check int) "gauge untouched" 0 last;
      Alcotest.(check int) "gauge hwm untouched" 0 max
  | _ -> Alcotest.fail "expected Gauge_v");
  match M.find_value reg "s" with
  | Some (M.Summary_v { count; _ }) -> Alcotest.(check int) "summary untouched" 0 count
  | _ -> Alcotest.fail "expected Summary_v"

let test_snapshot_sorted () =
  let reg = M.create () in
  ignore (M.counter reg "zz");
  ignore (M.counter reg ~labels:[ ("x", "2") ] "aa");
  ignore (M.counter reg ~labels:[ ("x", "1") ] "aa");
  let names = List.map (fun s -> s.M.name) (M.snapshot reg) in
  Alcotest.(check (list string)) "sorted by name then labels" [ "aa"; "aa"; "zz" ] names;
  match M.snapshot reg with
  | { M.labels = l1; _ } :: { M.labels = l2; _ } :: _ ->
      Alcotest.(check (list (pair string string))) "label tiebreak" [ ("x", "1") ] l1;
      Alcotest.(check (list (pair string string))) "label tiebreak 2" [ ("x", "2") ] l2
  | _ -> Alcotest.fail "expected 3 samples"

let test_json_export () =
  let reg = M.create () in
  let c = M.counter reg ~labels:[ ("sw", "0") ] "pkts" in
  M.Counter.set c 7;
  let s = M.summary reg "lat" in
  M.Summary.observe s 1.5;
  let json = M.to_json reg in
  Alcotest.(check bool) "has metrics key" true
    (contains ~affix:"\"metrics\"" json);
  Alcotest.(check bool) "has series" true
    (contains ~affix:"\"pkts\"" json);
  Alcotest.(check bool) "has label" true
    (contains ~affix:"\"sw\": \"0\"" json);
  Alcotest.(check bool) "has value" true
    (contains ~affix:"7" json);
  (* nan/inf never leak into the document. *)
  Alcotest.(check bool) "no nan" false (contains ~affix:"nan" json);
  Alcotest.(check bool) "no inf" false (contains ~affix:"inf" json)

let test_write_files () =
  let reg = M.create () in
  M.Counter.set (M.counter reg "n") 5;
  let jpath = Filename.temp_file "obs_test" ".json" in
  M.write_json reg ~path:jpath;
  let ic = open_in jpath in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "json file matches to_json" (M.to_json reg) text;
  Sys.remove jpath

let test_attach_histogram () =
  let reg = M.create () in
  let native = Stats.Histogram.log2 ~max_exponent:20 in
  M.attach_histogram reg "component.cycles" native;
  Stats.Histogram.add native 64.;
  Stats.Histogram.add native 128.;
  match M.find_value reg "component.cycles" with
  | Some (M.Histo_v { count; _ }) -> Alcotest.(check int) "snapshot reads live histogram" 2 count
  | _ -> Alcotest.fail "expected Histo_v"

(* The sample writer and merge [Obs.Metrics] had before its
   allocation-light renderer: [Printf] per field, polymorphic label
   [compare], and a union concatenated and re-sorted whole. Kept here as
   the oracle the renderer and the k-way merge must match byte for
   byte. *)
module Oracle = struct
  let finite x = if Float.is_nan x || x = infinity || x = neg_infinity then 0. else x

  let json_escape s =
    let buf = Buffer.create (String.length s + 2) in
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
      s;
    Buffer.contents buf

  let json_float x = Printf.sprintf "%.17g" (finite x)

  let sample_json buf { M.name; labels; value } =
    Buffer.add_string buf "    { \"name\": \"";
    Buffer.add_string buf (json_escape name);
    Buffer.add_string buf "\", \"labels\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf " \"%s\": \"%s\"" (json_escape k) (json_escape v)))
      labels;
    if labels <> [] then Buffer.add_char buf ' ';
    Buffer.add_string buf "}, ";
    (match value with
    | M.Counter_v v ->
        Buffer.add_string buf (Printf.sprintf "\"kind\": \"counter\", \"value\": %d" v)
    | M.Gauge_v { last; max; min } ->
        Buffer.add_string buf
          (Printf.sprintf "\"kind\": \"gauge\", \"value\": %d, \"max\": %d, \"min\": %d" last max
             min)
    | M.Histo_v { count; mean; p50; p99; max } ->
        Buffer.add_string buf
          (Printf.sprintf
             "\"kind\": \"histogram\", \"count\": %d, \"mean\": %s, \"p50\": %s, \"p99\": %s, \
              \"max\": %s"
             count (json_float mean) (json_float p50) (json_float p99) (json_float max))
    | M.Summary_v { count; mean; std; min; max } ->
        Buffer.add_string buf
          (Printf.sprintf
             "\"kind\": \"summary\", \"count\": %d, \"mean\": %s, \"std\": %s, \"min\": %s, \
              \"max\": %s"
             count (json_float mean) (json_float std) (json_float min) (json_float max)));
    Buffer.add_string buf " }"

  let to_json samples =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n  \"metrics\": [\n";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ",\n";
        sample_json buf s)
      samples;
    Buffer.add_string buf "\n  ]\n}\n";
    Buffer.contents buf

  let merged_snapshot regs =
    List.concat_map M.snapshot regs
    |> List.sort (fun a b ->
           match String.compare a.M.name b.M.name with 0 -> compare a.M.labels b.M.labels | c -> c)
end

(* The merged document of several registries, as [Parsim.run] builds
   it from its shards. *)
let merged_json regs = M.join (List.map M.render regs)

type kind = Count of int | Level of int list | Histo of float list | Summ of float list
type spec = { s_name : string; s_labels : M.labels; kind : kind }

let register reg { s_name = name; s_labels = labels; kind } =
  match kind with
  | Count v -> M.Counter.set (M.counter reg ~labels name) v
  | Level vs -> List.iter (M.Gauge.set (M.gauge reg ~labels name)) vs
  | Histo xs ->
      let h = Stats.Histogram.log2 ~max_exponent:40 in
      M.attach_histogram reg ~labels name h;
      List.iter (Stats.Histogram.add h) xs
  | Summ xs -> List.iter (M.Summary.observe (M.summary reg ~labels name)) xs

(* Registers each new series of [specs] in the union registry and in the
   registry its part index names; a series already in the union is
   skipped, so the parts stay disjoint and hold exactly the union. *)
let populate ~parts specs =
  let union = M.create () and regs = Array.init parts (fun _ -> M.create ()) in
  List.iter
    (fun (spec, part) ->
      if M.find_value union ~labels:spec.s_labels spec.s_name = None then begin
        register union spec;
        register regs.(part mod parts) spec
      end)
    specs;
  (union, Array.to_list regs)

let fixed_specs =
  [
    { s_name = "tm.drops"; s_labels = [ ("switch", "3") ]; kind = Count 7 };
    { s_name = "tm.drops"; s_labels = [ ("switch", "12") ]; kind = Count (-4) };
    { s_name = "tm.drops"; s_labels = [ ("port", "1"); ("switch", "3") ]; kind = Count max_int };
    { s_name = "tm.drops"; s_labels = []; kind = Count min_int };
    {
      s_name = "depth";
      s_labels = [ ("switch", "0"); ("port", "q\"uote") ];
      kind = Level [ 3; 9; -2 ];
    };
    { s_name = "depth"; s_labels = [ ("port", "") ]; kind = Level [] };
    { s_name = "lat"; s_labels = [ ("path", "back\\slash") ]; kind = Histo [ 1.; nan; 1e3 ] };
    { s_name = "lat"; s_labels = [ ("path", "new\nline") ]; kind = Histo [ infinity; 2. ] };
    { s_name = "lat"; s_labels = [ ("path", "ctl\001byte") ]; kind = Histo [ neg_infinity ] };
    { s_name = "lat"; s_labels = [ ("path", "tab\tend\x1f") ]; kind = Histo [] };
    { s_name = "load"; s_labels = [ ("x", "not a number") ]; kind = Summ [ nan; 1.5 ] };
    { s_name = "load"; s_labels = [ ("x", "+huge") ]; kind = Summ [ infinity; 1. ] };
    { s_name = "load"; s_labels = [ ("x", "-huge") ]; kind = Summ [ neg_infinity; -1. ] };
    { s_name = "load"; s_labels = [ ("x", "empty") ]; kind = Summ [] };
    { s_name = "ratio \"q\""; s_labels = []; kind = Summ [ 0.1; 0.2; 1e-300 ] };
    (* "a" sorts before "a\000" whatever labels follow either. *)
    { s_name = "a"; s_labels = [ ("\xff", "") ]; kind = Count 1 };
    { s_name = "a\000"; s_labels = []; kind = Count 2 };
  ]

let test_merged_json_is_union () =
  List.iter
    (fun parts ->
      let specs = if parts = 0 then [] else List.mapi (fun i spec -> (spec, i)) fixed_specs in
      let union, regs = populate ~parts specs in
      let name = Printf.sprintf "%d registries" parts in
      Alcotest.(check int) (name ^ ": every series kept") (List.length specs) (M.cardinality union);
      Alcotest.(check string) name (M.to_json union) (merged_json regs);
      Alcotest.(check string) (name ^ ": oracle")
        (Oracle.to_json (Oracle.merged_snapshot [ union ]))
        (M.to_json union);
      Alcotest.(check bool) (name ^ ": no nan") false (contains ~affix:"nan" (M.to_json union));
      Alcotest.(check bool) (name ^ ": no inf") false (contains ~affix:"inf" (M.to_json union)))
    [ 0; 1; 3 ]

let gen_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [
             'a'; 'b'; '.'; '0'; '9'; '"'; '\\'; '\n'; '\t'; '\000'; '\001'; '\x1f'; '\x7f'; '\xff';
           ])
      (int_bound 4))

let gen_spec =
  let open QCheck.Gen in
  let gen_int = oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1; 9; 10 ] ] in
  let gen_float =
    oneof [ float; oneofl [ nan; infinity; neg_infinity; 0.; -0.; 0.1; 1e300; -1e-300; 5e-324 ] ]
  in
  let gen_kind =
    oneof
      [
        map (fun v -> Count v) gen_int;
        map (fun l -> Level l) (list_size (int_bound 3) gen_int);
        map (fun l -> Histo l) (list_size (int_bound 4) gen_float);
        map (fun l -> Summ l) (list_size (int_bound 4) gen_float);
      ]
  in
  map3
    (fun s_name s_labels kind -> { s_name; s_labels; kind })
    (oneof [ oneofl [ "tm.drops"; "tm.drop"; "a" ]; gen_string ])
    (list_size (int_bound 3) (pair (oneof [ oneofl [ "port"; "switch" ]; gen_string ]) gen_string))
    gen_kind

let print_case specs =
  String.concat "; "
    (List.map
       (fun (s, part) ->
         Printf.sprintf "%S {%s} -> %d" s.s_name
           (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) s.s_labels))
           part)
       specs)

let qcheck_renderer_matches_oracle =
  QCheck.Test.make ~name:"renderer and merge match the Printf oracle" ~count:300
    (QCheck.make ~print:print_case
       QCheck.Gen.(list_size (int_bound 40) (pair gen_spec (int_bound 2))))
    (fun specs ->
      let union, regs = populate ~parts:3 specs in
      let merged = Oracle.merged_snapshot regs in
      M.to_json union = Oracle.to_json (Oracle.merged_snapshot [ union ])
      && merged_json regs = Oracle.to_json merged)

let test_merge_rejects_duplicates () =
  let a = M.create () and b = M.create () and c = M.create () in
  ignore (M.counter a ~labels:[ ("switch", "3") ] "tm.drops");
  ignore (M.counter a ~labels:[ ("switch", "2") ] "tm.drops");
  ignore (M.counter b ~labels:[ ("port", "1"); ("switch", "3") ] "tm.drops");
  ignore (M.gauge b ~labels:[ ("switch", "4") ] "tm.drops");
  ignore (M.counter c ~labels:[ ("switch", "3") ] "tm.drops");
  Alcotest.(check string) "disjoint registries merge"
    (Oracle.to_json (Oracle.merged_snapshot [ a; b ]))
    (merged_json [ a; b ]);
  let msg = "Metrics: series \"tm.drops\" {switch=\"3\"} registered by several registries" in
  List.iter
    (fun regs ->
      Alcotest.check_raises "join" (Invalid_argument msg) (fun () -> ignore (merged_json regs)))
    [ [ a; c ]; [ c; b; a ]; [ a; b; c ] ]

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge watermarks" `Quick test_gauge;
    Alcotest.test_case "histogram and summary" `Quick test_histogram_summary;
    Alcotest.test_case "registration idempotent" `Quick test_registration_idempotent;
    Alcotest.test_case "kind collision raises" `Quick test_kind_collision;
    Alcotest.test_case "disabled recording is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "snapshot deterministically sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "json export" `Quick test_json_export;
    Alcotest.test_case "write_json" `Quick test_write_files;
    Alcotest.test_case "attach_histogram reads live" `Quick test_attach_histogram;
    Alcotest.test_case "join of 0/1/3 registries = to_json of their union" `Quick
      test_merged_json_is_union;
    QCheck_alcotest.to_alcotest qcheck_renderer_matches_oracle;
    Alcotest.test_case "a series in two registries raises, naming its labels" `Quick
      test_merge_rejects_duplicates;
  ]
