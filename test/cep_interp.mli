(** Reference interpreter for one detector instance (one correlation
    key), the oracle of the CEP compiler's conformance tests: a direct
    recursive execution of the pattern semantics documented in
    {!Cep.Pattern}, sharing no mechanism with {!Cep.Compile} — counters
    and countdowns live inline in the progress tree rather than in EFSM
    registers. The QCheck conformance property drives random event
    streams through both and requires identical verdicts
    event-for-event. *)

open Cep

type t

val create : ?tick_period:Eventsim.Sim_time.t -> Pattern.t -> t
(** Default tick period 1 µs — keep it equal to the compiled
    automaton's. *)

val feed : t -> Pattern.view -> bool
(** Consume one event; [true] iff it completed the pattern (the
    instance then restarts from scratch). *)

val tick : t -> unit
(** One detector tick: decrement armed windows; the first expired
    window in pre-order resets its region (exactly one per tick). *)
