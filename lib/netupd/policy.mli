(** Declarative versioned forwarding policies.

    A policy is one forwarding table per switch — a list of
    [(key, out-port)] rules, where the key is whatever the data-plane
    program matches on (E26 uses the destination host id) — tagged with
    a monotonically increasing version. The version is what makes
    per-packet-consistent updates possible: a switch holds the tables
    of several versions at once ({!Table}) and matches on
    [(version, key)], so a packet stamped [v] at its ingress edge is
    forwarded under exactly policy [v] end-to-end. *)

type rule = { key : int; port : int }
type t

val with_version : t -> int -> t
val name : t -> string
val version : t -> int
val switches : t -> int
val rules : t -> int -> rule list
(** The rules of one switch, by switch id. *)

(** {1 Ring policies} (port convention of [Evcore.Topology.ring]:
    port 0 = host, 1 = clockwise, 2 = counter-clockwise), all at
    version 0 — {!Controller.propose} re-stamps them anyway. *)

val ring_uniform : switches:int -> name:string -> unit -> t
(** Always clockwise (the {!Evcore.Topology.ring_route} default). *)

val ring_threshold : switches:int -> ccw_at:int -> name:string -> unit -> t
(** Clockwise for destinations fewer than [ccw_at] hops away clockwise,
    counter-clockwise otherwise. [ccw_at = switches] degenerates to
    {!ring_uniform}; lower thresholds shift traffic onto the reverse
    direction — E26's update storm alternates two such policies. *)

val ring_avoiding : switches:int -> link:int -> name:string -> unit -> t
(** The precomputed backup policy for ring link [link] (between
    switches [link] and [link+1]): any pair whose clockwise path would
    cross the dead link routes counter-clockwise instead. Loop-free by
    construction — each path is a single arc. *)
