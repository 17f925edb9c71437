(** Hardware timer unit.

    Fires {!Event.Timer} events at a configured period per timer id.
    Hardware timers tick at a coarse resolution, so actual firing
    instants are quantised up to the next tick boundary — the resulting
    (bounded) jitter is visible in the Timer event's [scheduled] vs
    [fired] fields. Compare with control-plane-generated "timers",
    whose jitter is the control-channel latency (experiment E8). *)

type t
type timer_id = int

val create : sched:Eventsim.Scheduler.t -> sink:(Event.t -> unit) -> unit -> t
(** A unit whose tick quantum is 100 ns, a typical FPGA timer tick. *)

val add_periodic : t -> period:Eventsim.Sim_time.t -> timer_id
(** Register a periodic timer; first firing one period from now. *)

val cancel : t -> timer_id -> unit

val last_fire_time : t -> Eventsim.Sim_time.t
(** Instant of the most recent firing (0 before any) — must be
    non-decreasing and never ahead of the scheduler clock; the runtime
    invariant checker asserts this timer-monotonicity property. *)
