(** Count-min sketch (Cormode & Muthukrishnan) built over register
    arrays allocated from a {!Register_alloc.t}, so its state footprint
    is metered like any other data-plane state.

    Guarantees: the estimate never under-counts, and with width [w] and
    depth [d] the over-count exceeds [e*N/w] with probability at most
    [(1/2)^d]-ish (classically e/w and e^-d with w = ceil(e/eps)). *)

type t

val create :
  alloc:Register_alloc.t -> ?name:string -> width:int -> depth:int -> counter_bits:int -> unit -> t
val update : t -> key:int -> delta:int -> unit
val query : t -> key:int -> int
val reset : t -> unit
val bits : t -> int
