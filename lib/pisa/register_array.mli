(** Single-ported register array — the stateful primitive of a PISA
    pipeline stage.

    Values are masked to [width] bits (width <= 62). The array counts
    accesses, and, when given a cycle clock, detects same-cycle port
    conflicts: a physical single-ported SRAM can serve one
    read-modify-write per cycle, so two accesses in one cycle means the
    design would not meet line rate — exactly the problem §4 of the
    paper solves with aggregation registers. The simulator records the
    conflict and proceeds (functional behaviour is unaffected). *)

type t

val create : ?clock:(unit -> int) -> name:string -> entries:int -> width:int -> unit -> t
val name : t -> string
val entries : t -> int
val width : t -> int
val bits : t -> int
(** [entries * width] — the state footprint used for resource metering. *)

val read : t -> int -> int
val write : t -> int -> int -> unit
val add : t -> int -> int -> int
(** [add t i delta] read-modify-writes entry [i] (single port access),
    returning the new value (wrapping at [width] bits). *)

val fill : t -> int -> unit
val reset : t -> unit
(** Zero all entries; counts as one bulk operation, not per-entry
    accesses (hardware resets are wired, not ported). *)

val clear_entry : t -> int -> unit
(** Zero one entry without touching the access port — the per-slot
    wired clear used by table-managed externs ({!Efsm} eviction). *)

val reads : t -> int
val writes : t -> int
val conflicts : t -> int
(** Same-cycle multi-access count (0 when no clock was supplied). *)

val to_array : t -> int array
(** Snapshot copy, for tests and reports. *)
