(** Declarative multi-switch topologies: the one way to wire switches
    to each other and to hosts.

    A {!t} is pure data — switch count, switch-to-switch links, host
    attachments — that [Parsim.run] instantiates, on one scheduler or
    partitioned across parallel shards. {!make} turns endpoint lists
    into a one-off network; {!leaf_spine}, {!ring} and {!fat_tree}
    build the common shapes.

    Every link carries its own propagation delay. {!ring} and
    {!fat_tree} give link [i] a delay of [base + i * skew] (default
    skew 1 ps): distinct per-link delays keep independently-routed
    packets from colliding on the same picosecond at a switch, which
    makes event timestamps — and therefore merged traces — insensitive
    to how a partitioned run interleaves shards. The minimum link delay
    is also the conservative lookahead a partitioned execution may run
    ahead by. *)

type link = {
  link_id : int;
  a : int * int;  (** (switch, port) *)
  b : int * int;
  delay : Eventsim.Sim_time.t;
  detection_delay : Eventsim.Sim_time.t option;
}

type attachment = {
  host : int;
  switch : int;
  port : int;
  host_delay : Eventsim.Sim_time.t;
}

type t = {
  switches : int;  (** ids [0 .. switches-1] *)
  hosts : int;  (** ids [0 .. hosts-1] *)
  links : link list;  (** in [link_id] order *)
  attachments : attachment list;  (** in host-id order, one per host *)
}

val validate : t -> unit
(** Raises [Invalid_argument] if a (switch, port) pair is wired twice,
    an id is out of range, or host ids are not exactly [0..hosts-1]. *)

val max_port : t -> int -> int
(** Highest port used on a switch ([-1] if none). *)

val ports : t -> int array
(** Port count ([max_port + 1]) for every switch, computed in one pass
    over the links and attachments. Prefer this to calling {!max_port}
    per switch when building a whole topology — the per-switch form is
    quadratic and shows at 1000+ switches. *)

(** {1 Builders} *)

val make : switches:int -> links:((int * int) * (int * int)) list -> hosts:(int * int) list -> t
(** Switches [0 .. switches-1]; link [i] joins the [i]th pair of
    (switch, port) endpoints and host [h] sits on the [h]th
    (switch, port). Every link, host links included, has 1 us of delay
    and the link layer's default 10 us failure detection. *)

val leaf_spine : leaves:int -> spines:int -> hosts_per_leaf:int -> t
(** Leaves [0 .. leaves-1], spines [leaves .. leaves+spines-1], every
    link 1 us. On leaf [l], port [i < hosts_per_leaf] faces host
    [l * hosts_per_leaf + i] and port [hosts_per_leaf + s] is the
    uplink to spine [s]; a spine's port [l] faces leaf [l]. *)

val ring : ?delay:Eventsim.Sim_time.t -> ?skew:Eventsim.Sim_time.t -> switches:int -> unit -> t
(** [switches >= 2] switches in a cycle, one host each. Port 0 of each
    switch faces its host; port 1 is the clockwise uplink to the next
    switch's port 2. Host links take 1 us. Defaults: 1 us link delay,
    1 ps skew. *)

val ring_route : switches:int -> sw:int -> dst_host:int -> int
(** Egress port on [sw] toward [dst_host] under clockwise routing:
    port 0 when the host is local, else port 1. *)

val fat_tree : ?skew:Eventsim.Sim_time.t -> k:int -> unit -> t
(** A k-ary fat tree (k even, >= 2): [(k/2)^2] core switches, [k] pods
    of [k/2] aggregation plus [k/2] edge switches, [k^3/4] hosts.
    Switch ids: cores first, then pod [p]'s aggregations
    [(k/2)^2 + p*k ..] followed by its edges. Host
    [p*(k/2)^2 + e*(k/2) + m] sits on port [m] of edge [e] in pod [p].
    Edge/aggregation uplinks use ports [k/2 ..]. Core links take 2 us,
    edge links and host links 1 us; [skew] defaults to 1 ps. *)

val fat_tree_route : k:int -> sw:int -> dst_host:int -> int
(** Egress port on [sw] toward [dst_host]: standard two-level fat-tree
    routing with the deterministic ECMP choice fixed by the
    destination's member index, so every (sw, dst) pair always takes
    the same path. *)
