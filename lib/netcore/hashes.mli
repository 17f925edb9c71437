(** Hash functions used by data-plane externs (flow hashing, sketch
    rows). All are deterministic pure functions. *)

val crc32 : bytes -> int
(** IEEE 802.3 CRC-32 over the whole buffer (the polynomial hardware
    hash units typically expose). *)

val crc32_int : int -> int
(** CRC-32 of an int's 8 bytes, for hashing packed header fields. *)

val fnv1a64 : bytes -> int
(** 64-bit FNV-1a folded to 62 bits (non-negative). *)

val mix64 : int -> int
(** A strong finalizing mixer (splitmix64 finalizer), non-negative
    result. *)

val salted : salt:int -> int -> int
(** [salted ~salt key] is an independent-looking hash per salt; CMS
    rows use salts 0, 1, 2, ... *)

val fold_range : int -> int -> int
(** [fold_range h n] maps a hash onto [\[0, n)]. *)
