(** 48-bit Ethernet MAC addresses, stored in the low bits of an int. *)

type t = private int

val broadcast : t
val zero : t

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"]; raises [Invalid_argument] on bad
    syntax. *)

val to_string : t -> string
val host : int -> t
(** [host n] is a conventional locally-administered address for
    simulated host [n] ("02:00:00:.."). *)

val switch_port : switch:int -> port:int -> t
(** Conventional address for a switch-port interface. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
