(** Push-In-First-Out queue (Sivaraman et al., SIGCOMM'16): elements
    are pushed with a rank and always popped smallest-rank-first; among
    equal ranks, FIFO. The programmable scheduler building block the
    paper combines with event-driven programming (§3, Traffic
    Management). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the number of queued elements (default
    unbounded). *)

val push : 'a t -> rank:int -> 'a -> bool
(** [false] when at capacity and the new element's rank is not better
    than the current worst (in which case it is rejected); if it is
    better, the worst element is evicted — PIFO's bounded behaviour. *)

val push_evict : 'a t -> rank:int -> 'a -> [ `Accepted | `Rejected | `Evicted of 'a ]
(** Like {!push} but returns the evicted element so the caller can
    release its resources. *)

val pop : 'a t -> 'a option
val length : 'a t -> int
