(** Supervised handler execution.

    Every handler invocation on the dispatch path runs under a
    supervisor: exceptions are caught, a cooperative step budget (the
    watchdog) bounds runaway handlers, and the per-handler
    {!Policy.t} decides what a failure costs — abort ([Fail_fast]),
    lose one event ([Drop_event]), or unsubscribe the handler and
    re-enable it after an exponentially-growing, deterministically
    jittered backoff ([Quarantine]).

    Each registered handler is a {!key}. A key carries [on_disable] /
    [on_enable] callbacks (an event switch passes
    [Event_switch.set_subscribed]) so quarantining a handler also stops
    the event stream feeding it, and its own split RNG so backoff
    jitter is reproducible and independent of every other stream.

    The watchdog is metered, not preemptive: guarded code (or a fault
    injector) reports work via {!consume}; exceeding the per-invocation
    [budget] raises {!Budget_exhausted}, which the guard traps like any
    other handler failure. *)

type t
type key

exception Failed of string * exn
(** Raised (out of the guard) under [Fail_fast]: handler name plus the
    original exception. *)

exception Budget_exhausted
(** Raised by {!consume} when the current invocation's watchdog budget
    runs out. *)

exception Injected_crash of string
(** The synthetic failure armed by {!inject_crash}. *)

type config = {
  policy : Policy.t;  (** default policy for keys registered without one *)
  max_trips : int;  (** quarantine trips before a permanent failure *)
  base_backoff : Eventsim.Sim_time.t;  (** first quarantine duration *)
  max_backoff : Eventsim.Sim_time.t;  (** backoff growth cap *)
  backoff_jitter : Eventsim.Sim_time.t;
      (** uniform jitter added to each backoff, drawn from the key's
          split RNG *)
  budget : int;  (** watchdog steps per invocation; 0 = unlimited *)
}

val default_config : unit -> config
(** Reads {!Policy.default} at call time: 8 trips, 50 us base backoff
    doubling to a 1 ms cap, 20 us jitter, 100k-step budget. *)

val create : sched:Eventsim.Scheduler.t -> ?config:config -> seed:int -> unit -> t

val register :
  t ->
  name:string ->
  ?policy:Policy.t ->
  ?on_disable:(unit -> unit) ->
  ?on_enable:(unit -> unit) ->
  unit ->
  key
(** Registration order is significant: each key splits its jitter RNG
    off the supervisor's master stream. *)

(** {1 Guarded invocation} *)

val call : t -> key -> ('a -> 'b -> 'r) -> 'a -> 'b -> 'r option
(** Run [f a b] under the guard. [None] if the key is quarantined /
    permanently failed (the event is counted dropped) or the invocation
    failed and the policy absorbed it. Under [Fail_fast] a failure
    raises {!Failed} instead. *)

val call_sink : t -> key -> ('a -> 'b -> 'r) -> 'a -> 'b -> sink:('r -> unit) -> bool
(** Like {!call}, but the result is passed to [sink] (called only on
    success, before returning [true]) instead of being wrapped in an
    option — allocation-free when [sink] is a persistent closure. *)

val call_unit : t -> key -> ('a -> 'b -> unit) -> 'a -> 'b -> bool
(** Allocation-free variant of {!call} for [unit] handlers; [true] iff
    the handler ran to completion. *)

val protect : t -> key -> (unit -> unit) -> bool
(** Thunk variant, for callbacks that are not shaped [ctx -> ev]. *)

val consume : t -> int -> unit
(** Report [n] steps of work against the currently-running guarded
    invocation's budget (no-op outside a guard or with budget 0). *)

(** {1 Fault-injection hooks} (driven by [Faults.Handler_fault]) *)

val inject_crash : key -> n:int -> unit
(** Arm the next [n] invocations of [key] to raise {!Injected_crash}. *)

val inject_slowdown : key -> steps:int -> n:int -> unit
(** Arm the next [n] invocations to consume [steps] watchdog steps
    before the handler body runs. *)

(** {1 Introspection} *)

val key_name : key -> string
val active : key -> bool
(** [false] while quarantined or permanently failed. *)

val permanently_failed : key -> bool
val key_crashes : key -> int

val trips : t -> int
val recoveries : t -> int
val permanent_failures : t -> int
val dropped : t -> int
val crashes : t -> int
val watchdog_trips : t -> int
val quarantined : t -> int
(** Keys currently inactive. *)

val policy : t -> Policy.t
val config : t -> config
val keys : t -> key list
(** In registration order. *)

val find_key : t -> name:string -> key option

val export_metrics : ?labels:Obs.Metrics.labels -> t -> Obs.Metrics.t -> unit
(** Publish [resil.trips] / [resil.recoveries] /
    [resil.permanent_failures] plus per-handler crash / watchdog /
    trip / recovery / dropped-event counters (only for handlers that
    misbehaved, to keep cardinality flat). Idempotent; no-op when
    disabled. *)
