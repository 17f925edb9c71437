(** TCP header (no options). The simulator runs no TCP stack; workloads
    mark flows as TCP so that five-tuple handling and flag-driven
    programs see real flags. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  flags : int; (* low 9 bits: NS CWR ECE URG ACK PSH RST SYN FIN *)
}

val size : int
val flag_syn : int
val flag_ack : int
val flag_fin : int
val flag_rst : int

val make : src_port:int -> dst_port:int -> ?seq:int -> ?flags:int -> unit -> t

val pp : Format.formatter -> t -> unit
