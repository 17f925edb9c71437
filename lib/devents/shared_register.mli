(** The paper's [shared_register] extern: state shared between packet
    processing threads and event handling threads (§2), with the two
    physical realisations discussed in §4:

    - [Multiport]: one memory with a dedicated port per thread — viable
      at low line rates. Event-side operations apply immediately; reads
      are never stale. Charged as multi-ported memory by the resource
      model.

    - [Aggregated] (Figure 3): the main single-ported register array is
      owned by packet events; enqueue-side and dequeue-side operations
      coalesce into dedicated aggregation register arrays (one delta
      slot per index) and are folded into the main array during idle
      pipeline cycles, one index per spare cycle, alternating sides.
      Reads by packet threads see the main array and can therefore be
      stale by a bounded amount when the pipeline has spare cycles —
      exactly the paper's staleness trade-off, which {!staleness}
      quantifies.

    All arrays are allocated from the program's {!Pisa.Register_alloc},
    so both realisations are metered (Aggregated costs 3x the bits, as
    Figure 3's three arrays imply). *)

type mode = Multiport | Aggregated

type side = Enq_side | Deq_side

(** §4 leaves open "how memory accesses are scheduled, depending on
    which events are the most important and urgent". The drain policy
    decides which side's pending updates get each idle cycle:
    [Round_robin] alternates (the default — neither side starves);
    [Enq_first]/[Deq_first] strictly prioritise one side (fresher
    increments resp. decrements, at the cost of staleness on the
    other). E-ablation measures per-side staleness under each. *)
type drain_policy = Round_robin | Enq_first | Deq_first

type t

val create :
  alloc:Pisa.Register_alloc.t ->
  pipeline:Pisa.Pipeline.t ->
  mode:mode ->
  ?drain_policy:drain_policy ->
  name:string ->
  entries:int ->
  width:int ->
  unit ->
  t

val mode : t -> mode
val entries : t -> int

val read : t -> int -> int
(** Packet-thread read of the main array (possibly stale in
    [Aggregated] mode). Draining of pending aggregated ops up to the
    current idle-cycle budget happens first, as the hardware would have
    done during the interval. *)

val write : t -> int -> int -> unit
(** Packet-thread write (direct). *)

val add : t -> int -> int -> int
(** Packet-thread read-modify-write; returns the new value. *)

val event_add : t -> side -> int -> int -> unit
(** Event-thread increment (use a negative delta to decrement). In
    [Aggregated] mode the delta coalesces into the side's aggregation
    array; in [Multiport] mode it applies immediately. *)

val true_value : t -> int -> int
(** Main value plus all pending aggregated deltas — the value an
    oracle (or a multiported memory) would see. *)

val pending_ops : t -> int
(** Dirty aggregation entries not yet folded in. *)

val sync : t -> unit
(** Fold in all pending deltas regardless of budget (end-of-run
    accounting only; does not record staleness). *)

val staleness : t -> Stats.Histogram.t
(** Per-applied-op staleness in pipeline cycles (both sides). *)

val side_staleness : t -> side -> Stats.Histogram.t
(** Per-side staleness, for drain-policy ablations. *)

val max_staleness_cycles : t -> float
val applied_ops : t -> int
val total_bits : t -> int

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish applied/pending aggregation-op counts, the register's bit
    footprint, and (in [Aggregated] mode) the observed staleness
    histograms — overall and per side — into [reg], labelled by
    register name. Idempotent; a no-op when [reg] is disabled. *)
