(** Shared packet-buffer byte pool. All queues of a device draw from
    one pool, so one congested port can exhaust buffering for the
    others — the behaviour microburst detection cares about. *)

type t

val create : capacity_bytes:int -> t
val try_alloc : t -> int -> bool
(** Reserve bytes; [false] (and no reservation) when the pool would
    overflow. *)

val free : t -> int -> unit
val occupancy : t -> int
val high_watermark : t -> int
val failed_allocs : t -> int
