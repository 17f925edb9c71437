(** The switch-resident half of the update protocol.

    One agent per switch: it owns the switch's versioned {!Table}, the
    ingress version register (which version packets entering the
    network here get stamped with), and the counters the safety
    argument rests on. The data-plane program calls {!decide} per
    packet; the {!Controller} mutates the table / ingress register via
    acked control-plane ops. *)

type t

val create : keys:int -> edge_port:(int -> bool) -> unit -> t
(** [edge_port p] says whether ingress port [p] is a network edge
    (host-facing) — packets arriving there get stamped with the
    current ingress version; packets on fabric ports keep the version
    they already carry. *)

val table : t -> Table.t
val ingress_version : t -> int
val set_ingress_version : t -> int -> unit

val decide : t -> Netcore.Packet.t -> key:int -> int
(** Forwarding decision: stamp if the packet arrived on an edge port,
    then look up [(packet version, key)]. Returns the out-port, or
    [-1] for drop. A lookup miss on the packet's stamped version
    counts as {!mixed} — the packet can only proceed under a different
    version (the ingress fallback), which is exactly the
    inconsistency E26's invariant asserts never happens. *)

val stamped : t -> int
val forwarded : t -> int

val mixed : t -> int
(** Packets whose stamped version was not resident at this switch —
    each one observed two policy versions. Must be zero under the
    two-phase protocol. *)

val unroutable : t -> int
(** Mixed packets with no fallback either (dropped). *)

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** [netupd.agent.stamped/forwarded/mixed/unroutable] counters plus the
    [netupd.agent.ingress_version] gauge. Set-style; idempotent. *)
