(** Hash functions used by data-plane externs (flow hashing, sketch
    rows). All are deterministic pure functions. *)

val mix64 : int -> int
(** A strong finalizing mixer (splitmix64 finalizer), non-negative
    result. *)

val salted : salt:int -> int -> int
(** [salted ~salt key] is an independent-looking hash per salt; CMS
    rows use salts 0, 1, 2, ... *)

val fold_range : int -> int -> int
(** [fold_range h n] maps a hash onto [\[0, n)]. *)
