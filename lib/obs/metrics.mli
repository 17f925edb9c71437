(** Simulator-wide metrics registry.

    Components register typed instruments — monotonic {!Counter}s,
    {!Gauge}s, histograms a component keeps in a {!Stats.Histogram}
    ({!attach_histogram}) and {!Summary} series (backed by
    {!Stats.Welford}) — identified by a name plus a label set
    (component, switch, port, event class, ...). Experiments and the
    CLI take a {!snapshot} or export it as JSON.

    Recording is a no-op in a registry made with
    [create ~enabled:false]: every instrument shares the registry's
    enabled flag and checks it with a single load-and-branch, so an
    instrumented hot path costs nothing measurable when observability
    is off (the bench harness proves it on the event-dispatch
    kernel).

    Registration is idempotent: asking twice for the same
    (name, labels) pair returns the same instrument, so two components
    that agree on a series share it. Asking for the same pair with a
    different instrument kind is a label collision and raises
    [Invalid_argument]. Label order does not matter — labels are
    canonicalised by sorting on key. *)

type t

type labels = (string * string) list

val create : ?enabled:bool -> unit -> t
(** A fresh registry, enabled by default. *)

val is_enabled : t -> bool

val on_ref : t -> bool ref
(** The registry's shared enabled flag itself. Hot paths that guard a
    whole block of instrument updates (rather than one instrument) can
    cache this ref once and test it with a single load — cheaper than
    calling {!is_enabled} through a module boundary per event. It holds
    [create]'s [enabled]; never write to it. *)

(** {1 Instruments} *)

module Counter : sig
  type t

  val incr : t -> unit

  val set : t -> int -> unit
  (** For components that keep their own native counters and export the
      absolute value at snapshot time (idempotent, unlike {!incr}). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  (** Record the current level; min/max watermarks update alongside
      and show as the [max] and [min] of its {!value} (0 before any
      set). *)
end

module Summary : sig
  type t

  val observe : t -> float -> unit
end

val counter : t -> ?labels:labels -> string -> Counter.t
val gauge : t -> ?labels:labels -> string -> Gauge.t

val summary : t -> ?labels:labels -> string -> Summary.t

val attach_histogram : t -> ?labels:labels -> string -> Stats.Histogram.t -> unit
(** Expose a histogram a component already maintains (e.g. register
    staleness) under the registry's namespace. The component keeps
    recording into it directly; snapshots read it live. Attaching the
    same series twice keeps the first attachment. *)

(** {1 Snapshots and export} *)

type value =
  | Counter_v of int
  | Gauge_v of { last : int; max : int; min : int }
  | Histo_v of { count : int; mean : float; p50 : float; p99 : float; max : float }
  | Summary_v of { count : int; mean : float; std : float; min : float; max : float }

type sample = { name : string; labels : labels; value : value }

val snapshot : t -> sample list
(** Deterministic: sorted by (name, labels), independent of
    registration order. *)

val cardinality : t -> int
(** Number of registered series. *)

type rendered
(** One registry's series, sorted and each rendered as its line of the
    JSON document: a shard's share of a merged document, assembled on
    the shard's own domain. *)

val render : t -> rendered
(** Reads, sorts and renders every series of the registry as it stands
    now; later updates do not show. *)

val join : rendered list -> string
(** The JSON document of the rendered registries' union, in
    (name, labels) order — the deterministic merge of per-shard
    registries from a partitioned simulation, rendered exactly as
    {!to_json} renders one registry, so a sequential run's snapshot
    and a sharded run's merged one are byte-comparable. It merges the
    sorted series and concatenates their lines, rendering nothing
    again. The series sets must be disjoint (shards own disjoint
    switches): a (name, labels) pair present in two of them raises
    [Invalid_argument] naming both the name and the labels.
    [to_json t = join [ render t ]]. *)

val find_value : t -> ?labels:labels -> string -> value option

val to_json : t -> string
(** The whole snapshot as a JSON document
    [{ "metrics": [ {name; labels; kind; ...fields}; ... ] }]. *)

val write_json : t -> path:string -> unit
