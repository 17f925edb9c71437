(** Bounded FIFO used by the event merger for its packet input queues.

    Hardware event queues are small fixed FIFOs; when one fills, new
    elements are lost (and counted) — a measurable pressure signal for
    experiments E4/E15. Implemented as a preallocated ring: a
    steady-state push/pop cycle allocates nothing. *)

type 'a t

val create : capacity:int -> 'a t
val push : 'a t -> 'a -> bool
(** [false] if the queue was full (the element is dropped). *)

val pop_or : 'a t -> default:'a -> 'a
(** Remove and return the head element, or [default] when empty;
    allocation-free. *)

val length : 'a t -> int

val dropped : 'a t -> int
