(** Five-tuple flow identification. *)

type t = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

val make :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> ?proto:int -> ?src_port:int -> ?dst_port:int -> unit -> t

val pack : t -> int
(** Injective packing of the tuple into an int is impossible (104 bits),
    so [pack] returns a 62-bit mix suitable as a hash key; collision
    probability is negligible at simulation scale. *)

val hash : t -> int
(** [Hashes.mix64] of [pack]. *)

val hash_addresses : t -> int
(** Hash of source and destination addresses only — the paper's
    microburst example hashes [ip.src ++ ip.dst]. *)

val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
