(** Complex-event pattern combinators over the paper's 13 event
    classes (P4CEP-style, compiled onto the {!Pisa.Efsm} extern by
    {!Compile}).

    A pattern describes one detector instance per correlation key (the
    parameterisation of [correlate ~key]: port, flow, or a custom
    selector — chosen by {!Detector}). Every event is rendered to a
    {!view} — its class plus one class-specific attribute — and a
    pattern consumes views one at a time with single-instance,
    skip-till-next-match semantics:

    - an event that matches the pattern's current frontier (the
      left-most enabled atom, scanning {!seq} components in order and
      {!conj}/{!disj} branches left to right) advances it;
    - an event that matches nothing is ignored (no reset);
    - completing the whole pattern yields a match and restarts the
      instance from scratch.

    Time is quantised into detector ticks: {!within} windows arm a
    countdown when their sub-pattern consumes its first event,
    decrement once per tick, and on expiry reset the sub-pattern's
    progress (the first expired window per tick wins, scanning
    outermost-first — exactly one region resets per tick). The same
    tick stream drives both the reference interpreter ({!Interp}) and
    the compiled automaton, so their verdicts agree event-for-event. *)

type view = { cls : Devents.Event.cls; attr : int }
(** An event as the pattern sees it: its Table 1 class and one
    attribute (queue occupancy, packet length, TCP-flag class, link
    direction, ...), chosen by the detector's extractors. *)

type atom = private { label : string; cls : Devents.Event.cls; lo : int; hi : int }
(** Matches a view of class [cls] whose attribute lies in [lo..hi]
    (after clamping to the attribute range). *)

type t = private
  | Atom of atom
  | Seq of t list  (** components complete left to right *)
  | Conj of t list  (** all branches complete, interleaved *)
  | Disj of t list  (** first branch to complete wins *)
  | Count of int * t  (** [n] consecutive completions of the sub-pattern *)
  | Within of Eventsim.Sim_time.t * t
      (** the sub-pattern must complete within the window of its own
          first consumed event, else its progress resets *)

(** {1 Combinators} — each validates its arguments
    ([Invalid_argument] on an empty list, [count n] with [n < 1],
    a non-positive window, or an empty attribute interval). *)

val atom : ?lo:int -> ?hi:int -> label:string -> Devents.Event.cls -> t
(** [lo] defaults to 0, [hi] to the attribute maximum
    ({!attr_base}[- 1]) — i.e. any event of the class. *)

val seq : t list -> t
val conj : t list -> t
val disj : t list -> t
val count : int -> t -> t
val within : Eventsim.Sim_time.t -> t -> t

(** {1 Encoding} — shared by the compiler, the interpreter and the
    detector shim so all three agree on what an event looks like. *)

val attr_base : int
(** Attributes are clamped to [0 .. attr_base - 1] (2^20); the EFSM
    input word is [cls_index * attr_base + attr]. *)

val encode : view -> int
(** The EFSM input word for a view. *)

val tick_input : int
(** The reserved input word carrying the detector tick (broadcast to
    every flow context via {!Pisa.Efsm.step_all}). *)

val atom_matches : atom -> view -> bool

val ticks_of_window : tick_period:Eventsim.Sim_time.t -> Eventsim.Sim_time.t -> int
(** Window length in whole ticks, rounded up, at least 1. *)

(** {1 Introspection} *)

val classes : t -> Devents.Event.cls list
(** Event classes the pattern's atoms mention, deduplicated, in
    class-index order — what a detector must subscribe to. *)

val atoms : t -> atom list
(** All atoms, left to right. *)

val size : t -> int
(** Node count. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
