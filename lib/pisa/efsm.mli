(** Per-flow extended finite-state machine extern — the OPP / FlowBlaze
    stateful abstraction (Bianchi et al., Cascone et al.).

    A flow key selects a per-flow context: a small state label plus a
    bank of [nregs] registers. Each packet (or event) presents an
    [input] word; the first transition whose [from_state] matches and
    whose guard holds fires, moving the flow to [next_state] and
    applying its register updates. Updates are evaluated against the
    pre-transition register values and then written back — the
    parallel-ALU semantics of the hardware, so [r0 = r1; r1 = r0]
    swaps. If no transition matches, the state is left unchanged and
    [guard_misses] is incremented.

    State is backed by {!Register_array}s allocated through the
    program's {!Register_alloc} when one is given, so the flow table's
    footprint is metered like every other extern. The word-level
    accesses of one transition land in the same pipeline cycle and are
    visible as {!Register_array.conflicts}; the flow-level contention
    OPP centres on is modelled separately: two hits on the {e same
    flow} within {!Pipeline.default_depth} cycles of each other cannot both be
    served by the single-ported state memory's read-modify-write loop,
    so the second is counted in [stalls] (functional behaviour is
    unaffected — the simulator records the stall and proceeds, exactly
    like {!Register_array} port conflicts).

    The flow table holds [entries] contexts. Overflow evicts the
    least-recently-accessed flow (ties broken by lowest slot). A
    [timeout] plus {!sweep} (typically driven by a switch timer event)
    gives idle-eviction; a flow stepped at the sweep's own timestamp
    counts as refreshed and survives — the in-flight transition wins
    the race. *)

type operand =
  | Const of int
  | State  (** the flow's current state label *)
  | Input  (** the input word presented to {!step} *)
  | Reg of int  (** flow register [0 .. nregs-1] *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type guard =
  | Always
  | Cmp of cmp * operand * operand
  | All of guard list  (** conjunction; [All []] holds *)
  | Any of guard list  (** disjunction; [Any []] fails *)

(** Register updates. [Add]/[Sub] wrap at [width] bits; [Sat_add]
    clamps at the width's maximum, [Sat_sub] at zero. *)
type update =
  | Set of operand
  | Add of operand * operand
  | Sub of operand * operand
  | Sat_add of operand * operand
  | Sat_sub of operand * operand
  | Min of operand * operand
  | Max of operand * operand

type action = { reg : int; update : update }

type transition = {
  from_state : int;
  guard : guard;
  next_state : int;
  actions : action list;
}
(** Transitions are tried in list order; the first match wins. *)

type t

val create :
  ?alloc:Register_alloc.t ->
  ?timeout:Eventsim.Sim_time.t ->
  ?state_bits:int ->
  name:string ->
  entries:int ->
  nregs:int ->
  transitions:transition list ->
  unit ->
  t
(** Registers and inputs are 32 bits wide. A second hit on the same
    flow within {!Pipeline.default_depth} cycles of the first stalls;
    the cycle counter is the allocator's clock (the pipeline clock
    inside a switch), and with no allocator or no clock no stalls are
    ever recorded. [timeout] is the idle interval after which
    {!sweep} evicts (default: no timeout eviction); it must be
    strictly positive — a zero or negative timeout would arm a sweep
    that spins at its own timestamp. [state_bits] (default 8) bounds
    state labels. When [alloc] is given, the backing arrays are
    allocated through it and a stats exporter is registered under
    [name], so the switch publishes [pisa.efsm.*] metrics
    automatically. Raises [Invalid_argument] on out-of-range states,
    register indices, non-positive timeouts, or parameters. *)

(** What one {!step} did. *)
type outcome = {
  slot : int;
  prev_state : int;
  state : int;
  fired : bool;  (** a transition matched (false ⇒ guard miss) *)
  inserted : bool;  (** the flow was not in the table before *)
  stalled : bool;  (** adjacent-window hit on this flow's state *)
}

val step : t -> now:int -> key:int -> input:int -> outcome
(** Look up (inserting/evicting as needed), run the transition table
    once, refresh the flow's last-access time to [now]. *)

val step_all : t -> input:int -> unit
(** Run the transition table once for every occupied slot, in slot
    order — the broadcast/timer-driven global transition of OPP (e.g.
    a rate window reset). Does not refresh last-access times or touch
    the contention tracker: idle flows still time out. *)

val sweep : t -> now:int -> int
(** Evict every flow idle for at least the timeout (strictly older
    than [now - timeout]; a flow stepped at [now] survives). Returns
    the number evicted; 0 when no timeout was configured. Evicted
    slots rejoin the free list (lowest-numbered slot reused first), so
    sweeping never forces capacity evictions of live flows. *)

val state_of : t -> key:int -> int option
val regs_of : t -> key:int -> int array option
val occupancy : t -> int

val steps : t -> int
val fired : t -> int
val guard_misses : t -> int
val stalls : t -> int
val evictions_timeout : t -> int
val evictions_capacity : t -> int
val sweeps : t -> int

val state_hash : t -> int
(** Order-independent-of-nothing, deterministic digest of the occupied
    (key, state, registers) contexts in slot order — pins the whole
    flow-state evolution in conformance tests and merged metrics. *)
