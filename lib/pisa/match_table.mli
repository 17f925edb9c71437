(** Match-action tables.

    A table matches an integer key (packed header fields) against its
    entries and yields an action value ['a]. The three PISA match kinds
    are supported; a table is created with one kind and only accepts
    entries of that kind. Control planes install and remove entries;
    the data plane only calls [lookup]. *)

type 'a t

type kind = Exact | Lpm | Ternary

val exact : name:string -> 'a t
val lpm : name:string -> key_bits:int -> 'a t
(** [key_bits] is the width of lookup keys (32 for IPv4 prefixes). *)

val ternary : name:string -> 'a t
val name : 'a t -> string
val kind : 'a t -> kind
val size : 'a t -> int

val set_default : 'a t -> 'a -> unit
(** Action when no entry matches. *)

val add_exact : 'a t -> key:int -> 'a -> unit
val remove_exact : 'a t -> key:int -> unit
val add_lpm : 'a t -> prefix:int -> len:int -> 'a -> unit
val add_ternary : 'a t -> ?priority:int -> value:int -> mask:int -> 'a -> unit
(** Higher [priority] wins among multiple ternary matches (default 0);
    insertion order breaks ties (earlier wins). *)

val lookup : 'a t -> int -> 'a option
(** [None] only when there is no match and no default. *)

val lookups : 'a t -> int
val hits : 'a t -> int
val clear : 'a t -> unit
(** Remove all entries (keeps the default). *)
