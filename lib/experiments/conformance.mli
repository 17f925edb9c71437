(** Shard-count conformance, shared by the sharded experiments
    (E23-E27).

    A sweep runs one scenario at every shard count, reduces each run to
    labelled digest lines and flags it conformant when its lines equal
    the first (sequential) run's. The same lines, taken from the
    sequential run of an experiment's golden scenario, are what the
    files under [test/golden/] pin. *)

val shard_counts : int list ref
(** The shard counts {!sweep} runs by default, [[1; 2; 4]]. [evsim
    --shards N] narrows it to [[1; N]] ([[1]] for [N = 1]); a count of
    [0] lets the engine pick ({!Parsim.recommended_domains}). *)

val digests : ?leg:string -> Parsim.config -> Parsim.result -> (string * string) list
(** The [(label, hex)] digest lines of one run, in this order:
    ["trace"], the MD5 of the merged trace, when [cfg] records a trace;
    ["arrivals"], the order-independent arrival digest, when [cfg]
    records one; and always ["metrics"], the MD5 of the merged metrics
    JSON. [leg] prefixes every label: [~leg:"fw"] gives ["fw.trace"]. *)

val exports : Parsim.result -> string list -> bool
(** Every named series is present in the run's merged metrics. *)

type 'a run = {
  shards : int;  (** resolved: an auto ([0]) count reads as the engine's pick *)
  result : Parsim.result;
  lines : (string * string) list;  (** the run's {!digests} *)
  conformant : bool;  (** [lines] equal the first run's *)
  state : 'a;  (** what the scenario built beside its config *)
}

val sweep :
  ?shard_counts:int list ->
  Evcore.Topology.t ->
  (shards:int -> Parsim.config * 'a) ->
  'a run list
(** Build and run the scenario once per shard count (default
    {!shard_counts}), in order, and compare every run against the
    first. Raises [Invalid_argument] on an empty list. *)

val all_conformant : 'a run list -> bool

val short : string -> 'a run -> string
(** The first 12 hex digits of the run's digest line [label], for
    report tables. *)

(** {1 Golden files} *)

type golden = {
  name : string;  (** file stem, e.g. ["e23"] *)
  seeds : int list;
  shards : int list;
      (** the shard counts the golden suite replays; each must
          reproduce the sequential lines byte for byte *)
  topo : unit -> Evcore.Topology.t;
  legs : shards:int -> seed:int -> (string option * Parsim.config) list;
      (** the golden scenario's runs at a shard count, each with the
          [leg] that prefixes its digest lines *)
}

val golden_digests : golden -> shards:int -> seed:int -> (string * string) list
(** Run every leg and concatenate their {!digests}. *)

val golden_file : golden -> int -> string
(** ["<name>_seed<seed>.digest"]: one ["label hex"] line per digest of
    the sequential run. *)
