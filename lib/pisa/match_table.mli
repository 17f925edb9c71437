(** Match-action tables.

    A table matches an integer key (packed header fields) against its
    entries and yields an action value ['a]. Two PISA match kinds are
    supported, exact and longest-prefix; a table is created with one
    kind and only accepts entries of that kind. Control planes install
    and remove entries; the data plane only calls [lookup]. A key that
    matches no entry yields [None]. *)

type 'a t

val exact : name:string -> 'a t
val lpm : name:string -> key_bits:int -> 'a t
(** [key_bits] is the width of lookup keys (32 for IPv4 prefixes). *)

val add_exact : 'a t -> key:int -> 'a -> unit
val remove_exact : 'a t -> key:int -> unit
val add_lpm : 'a t -> prefix:int -> len:int -> 'a -> unit

val lookup : 'a t -> int -> 'a option
(** [None] when no entry matches. *)
