(** Packet/byte counter arrays (the P4 [counter] extern). *)

type t

val create : name:string -> entries:int -> t
val count : t -> index:int -> bytes:int -> unit
val packets : t -> int -> int
val bytes : t -> int -> int
val total_packets : t -> int
val total_bytes : t -> int
val reset : t -> unit
