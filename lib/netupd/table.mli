(** A switch's versioned match table.

    Holds the rules of several policy versions side by side — the heart
    of the two-phase scheme: during an update both the old and new
    version are resident, and which one a packet hits is decided purely
    by the version stamped in its metadata, never by *when* the packet
    crossed the switch. *)

type t

val create : keys:int -> unit -> t
(** [keys] bounds the match-key space (dense per-version arrays). *)

val install : t -> version:int -> Policy.rule list -> unit
(** Install (or idempotently overwrite) one version's rules. *)

val uninstall : t -> version:int -> unit
(** Remove a version's rules; no-op if absent (idempotent). *)

val lookup : t -> version:int -> key:int -> int
(** Out-port, or [-1] when the version is absent or has no rule. *)

val versions : t -> int list
(** Resident versions, ascending. *)

val installs : t -> int
val uninstalls : t -> int
