(** Pattern → EFSM compiler.

    Compilation explores the pattern's reachable progress
    configurations (which {!Seq} component is active, which
    {!Conj}/{!Disj} branches have completed, which {!Within} windows
    are armed) and interns each as one EFSM state label; counter and
    countdown values stay out of the state space — they live in flow
    registers, referenced by guarded transitions:

    - an atom becomes an input-interval guard
      ([cls * attr_base + lo .. cls * attr_base + hi]);
    - [count n] allocates one register; completing the sub-pattern
      splits into a completion row guarded [reg >= n-1] and an
      increment row (first-match order keeps this deterministic);
    - [within w] allocates one countdown register armed when its
      region consumes its first event; the detector's tick — broadcast
      to every flow via {!Pisa.Efsm.step_all} — decrements armed
      countdowns, and a row guarded [reg <= 1] resets the expired
      region (idle whole-flow contexts are reclaimed separately by the
      EFSM's timeout sweep machinery);
    - completing the whole pattern jumps to a dedicated accept state
      whose outgoing rows mirror the start state's, with every
      register cleared — so a detector shim reports a match exactly
      when a step fires into [accept].

    Rows for one configuration are emitted in frontier order (the
    scan order of a direct interpretation of {!Pattern}), so the EFSM's
    first-match-wins rule implements the same deterministic choice as
    the reference interpreter the tests check it against. *)

type t = {
  pattern : Pattern.t;
  tick_period : Eventsim.Sim_time.t;
  nregs : int;
  states : int;  (** configuration count, including the accept state *)
  accept : int;  (** the accept state label *)
  state_bits : int;
  transitions : Pisa.Efsm.transition list;
}

val compile : ?tick_period:Eventsim.Sim_time.t -> Pattern.t -> t
(** Default tick period: 1 µs. Raises [Invalid_argument] if the
    configuration space exceeds 512 states (deeply nested
    conjunctions of counts). *)

val efsm :
  ?alloc:Pisa.Register_alloc.t ->
  ?timeout:Eventsim.Sim_time.t ->
  ?entries:int ->
  name:string ->
  t ->
  unit ->
  Pisa.Efsm.t
(** Instantiate the compiled automaton as a flow table with one
    detector instance per correlation key ([entries] defaults to
    1024). *)

val is_match : t -> Pisa.Efsm.outcome -> bool
(** A step completed the pattern: it fired into the accept state. *)
