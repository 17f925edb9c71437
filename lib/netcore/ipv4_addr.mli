(** IPv4 addresses as 32-bit values in an int. *)

type t = private int

val to_int : t -> int
val of_string : string -> t
(** Dotted quad; raises [Invalid_argument] on bad syntax. *)

val of_octets : int -> int -> int -> int -> t
val host : subnet:int -> int -> t
(** [host ~subnet n] is 10.[subnet].x.y for host number [n]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Dotted quad. *)
