(** Fixed-function single-rate three-color marker (srTCM, RFC 2697) —
    the "primitive element" meter that baseline PISA targets expose
    (paper §3, Traffic Management). Token buckets are refilled lazily
    and continuously from timestamps, which is what dedicated hardware
    does; E13 compares this exact meter against a timer-event-driven
    register implementation. *)

type color = Green | Yellow | Red

type t

val create : cir_bytes_per_sec:float -> cbs:int -> ebs:int -> t
(** [cir_bytes_per_sec] committed information rate; [cbs]/[ebs]
    committed/excess burst sizes in bytes. *)

val mark : t -> now_ps:int -> bytes:int -> color
(** Color a packet of [bytes] arriving at [now_ps] (picoseconds), in
    color-blind mode, consuming tokens accordingly. *)

val tokens : t -> now_ps:int -> float * float
(** Current (committed, excess) token levels after lazy refill. *)

val color_to_string : color -> string
