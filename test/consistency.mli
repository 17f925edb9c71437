(** Consistency checking for multi-threaded data-plane state.

    §7 of the paper: "Defining a consistency model for multi-threaded
    data-plane programs remains an area of future work." This module
    supplies the natural model for the architecture's dominant state
    pattern — commutative counter updates from event threads, reads
    from packet threads — and a checker for it:

    {b Bounded-staleness consistency with bound B}: a read at time [T]
    must return the sum of a prefix (in issue order) of the update
    history such that every update issued before [T - B] is included
    and no update issued after [T] is. With [B = 0] this is
    linearizability of a counter; with [B = infinity] it is mere
    eventual consistency.

    §4's claim — "staleness is bounded if the pipeline runs slightly
    faster than line rate ... the resulting algorithm has well-defined
    behavior" — becomes checkable: record a history against a
    {!Devents.Shared_register} and verify it against the bound the idle-cycle
    supply implies. Tests do exactly that. *)

type event =
  | Update of { issue : int; delta : int }  (** event-thread increment *)
  | Read of { time : int; value : int }  (** packet-thread observation *)

type violation = {
  read_time : int;
  observed : int;
  valid_values : int list;  (** the sums the model would have allowed *)
}

val check : bound:int -> event list -> (unit, violation) result
(** Validate a single-slot history (events in any order; they are
    sorted internally). Returns the first violating read, if any.
    [bound] is in the same time unit as the events (cycles here).

    This is the {e prefix} model: correct when all updates funnel
    through one aggregation queue (e.g. enqueue-side only). *)

val check_interval : bound:int -> event list -> (unit, violation) result
(** The model the two-queue Figure 3 design actually guarantees: the
    enqueue-side and dequeue-side queues drain independently, so
    updates inside the staleness window may apply in {e any} subset
    order. A read is valid when its value lies between
    [mandatory + (sum of negative window deltas)] and
    [mandatory + (sum of positive window deltas)], where [mandatory]
    is the sum of all updates issued before [T - bound]. Sound
    (never rejects a legal execution); slightly over-permissive for
    adversarial windows. Because counter updates commute, this is the
    natural consistency contract for event-driven counters — the
    checkable rendering of §4's "temporarily imprecise but
    well-defined behavior". *)

val eventually_consistent : event list -> bool
(** [check] with an unbounded staleness window: each read must still
    equal {e some} prefix sum — values from thin air are never
    allowed. *)

type recorder

val recorder : unit -> recorder
val record_update : recorder -> issue:int -> delta:int -> unit
val record_read : recorder -> time:int -> value:int -> unit
val history : recorder -> event list
val length : recorder -> int
