(** Ladder queue (Tang, Goh & Thng 2005): the adaptive calendar-style
    event queue {!Scheduler} runs on.

    Far-future events sit in an unsorted top bag; popping spreads them
    across bucket rungs of progressively finer width, and only the
    handful of imminent events are ever kept sorted (the bottom list).
    There is no fixed resolution or horizon: the bucket widths adapt to
    the actual event-time distribution, so both dense same-instant
    bursts and sparse far-future parking stay amortised O(1) per
    event.

    Firing order is total: non-decreasing time, FIFO among same-time
    events (every node carries a push sequence number and the bottom
    list is sorted by (time, seq)).

    Internal nodes are free-listed and the sort scratch is reused, so a
    steady-state push/pop cycle allocates nothing. Not thread-safe.
    Times are {!Sim_time} picoseconds and must be non-negative. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> tag:int -> 'a -> unit
(** Queue [payload] at [time]. The node keeps [tag] beside it and hands
    it back with the payload ({!drain_upto}, {!next_tag}), so a caller
    can attach a small int (the scheduler's event class) without a
    record of its own.

    @raise Invalid_argument if [time] is before {!position} (the ladder
    cannot travel backwards). *)

val peek_time : 'a t -> int option
(** Earliest queued time, without removing anything (the refill this
    may trigger is order-neutral). *)

val next_time : 'a t -> int
(** Earliest queued time, or [-1] when empty — the allocation-free
    {!peek_time} for the scheduler hot path. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event as [(time, payload)],
    advancing the ladder position to [time]. *)

val next_tag : 'a t -> int
(** The earliest event's tag. Raises [Invalid_argument] when empty;
    read it between {!next_time} and {!take}. *)

val take : 'a t -> 'a
(** Remove and return the earliest payload alone — allocation-free.
    Raises [Invalid_argument] when empty; pair with {!next_time}. *)

val drain_upto : 'a t -> limit:int -> (time:int -> tag:int -> 'a -> unit) -> unit
(** Fire every event with [time <= limit] through [f], in order,
    including events that [f] itself pushes at already-reached times
    (they sort into the bottom list behind their same-time
    predecessors). The position never advances past the earliest
    remaining event, so it never exceeds [limit]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val position : 'a t -> int
(** Latest popped time: pushes before this raise. *)
