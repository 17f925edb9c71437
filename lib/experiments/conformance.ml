let shard_counts = ref [ 1; 2; 4 ]
let md5 s = Digest.to_hex (Digest.string s)

let digests ?leg (cfg : Parsim.config) (r : Parsim.result) =
  let label l = match leg with None -> l | Some p -> p ^ "." ^ l in
  (if cfg.record_trace then [ (label "trace", md5 (String.concat "\n" r.trace)) ] else [])
  @ (if cfg.record_digest then [ (label "arrivals", r.arrival_digest) ] else [])
  @ [ (label "metrics", md5 r.metrics_json) ]

let exports (r : Parsim.result) names =
  let present =
    List.concat_map
      (fun reg -> List.map (fun (s : Obs.Metrics.sample) -> s.name) (Obs.Metrics.snapshot reg))
      r.registries
  in
  List.for_all (fun n -> List.mem n present) names

type 'a run = {
  shards : int;
  result : Parsim.result;
  lines : (string * string) list;
  conformant : bool;
  state : 'a;
}

let sweep ?(shard_counts = !shard_counts) topo scenario =
  let runs =
    List.map
      (fun shards ->
        let cfg, state = scenario ~shards in
        let result = Parsim.run cfg topo in
        (result, digests cfg result, state))
      shard_counts
  in
  match runs with
  | [] -> invalid_arg "Conformance.sweep: empty shard_counts"
  | (_, first, _) :: _ ->
      List.map
        (fun ((result : Parsim.result), lines, state) ->
          { shards = result.plan.part.shards; result; lines; conformant = lines = first; state })
        runs

let all_conformant runs = List.for_all (fun r -> r.conformant) runs

let short label run =
  let hex = List.assoc label run.lines in
  String.sub hex 0 (min 12 (String.length hex))

type golden = {
  name : string;
  seeds : int list;
  shards : int list;
  topo : unit -> Evcore.Topology.t;
  legs : shards:int -> seed:int -> (string option * Parsim.config) list;
}

let golden_digests g ~shards ~seed =
  let topo = g.topo () in
  List.concat_map (fun (leg, cfg) -> digests ?leg cfg (Parsim.run cfg topo)) (g.legs ~shards ~seed)

let golden_file g seed = Printf.sprintf "%s_seed%d.digest" g.name seed
