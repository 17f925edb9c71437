(** UDP header. *)

(** Fields are mutable only for in-place reuse by
    {!Packet_arena}-recycled packets; treat received headers as
    read-only. *)
type t = { mutable src_port : int; mutable dst_port : int; mutable length : int }

val size : int
val make : src_port:int -> dst_port:int -> payload_len:int -> t

val set : t -> src_port:int -> dst_port:int -> payload_len:int -> unit
(** Refill every field in place, as {!make} would — allocation-free. *)
