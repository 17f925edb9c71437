(** Binary min-heap keyed by (time, sequence number): the reference
    queue the tests check {!Ladder_queue} against. The scheduler itself
    runs on the ladder.

    The sequence number makes the ordering total and FIFO among events
    scheduled for the same instant, which keeps simulations deterministic
    regardless of heap internals. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** Sequence numbers are assigned internally in [push] order. *)

val peek_time : 'a t -> int option

val next_time : 'a t -> int
(** Earliest queued time, or [-1] when empty — the allocation-free
    {!peek_time} (times are non-negative). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest element with its time. *)

val take : 'a t -> 'a
(** Remove and return the earliest payload alone (allocation-free apart
    from heap bookkeeping). Raises [Invalid_argument] when empty; pair
    with {!next_time}. *)
