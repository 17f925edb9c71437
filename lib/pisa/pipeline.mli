(** Cycle-accounted PISA pipeline.

    The pipeline admits at most one carrier (packet, or event-only empty
    packet) per clock cycle and has a fixed traversal depth. It does not
    execute programs itself — the architecture (event merger + switch)
    decides what enters; the pipeline provides the timing/cycle ledger:

    - when the next admission slot is,
    - the traversal latency,
    - how many cycles carried a packet, an empty carrier or nothing;
      idle cycles are the memory bandwidth available to drain
      aggregation registers (paper §4, Figure 3).

    The defaults model the NetFPGA SUME P4 pipeline: 200 MHz clock
    (5 ns cycle) and a 16-cycle depth. A 4x10 Gb/s device at minimum
    packet size offers ~59.5 Mpps < 200 MHz, so the pipeline naturally
    runs "faster than line rate" and idle cycles exist, as §4 assumes. *)

type t

val default_clock_period : Eventsim.Sim_time.t
val default_depth : int

val create : sched:Eventsim.Scheduler.t -> ?clock_period:Eventsim.Sim_time.t -> unit -> t
(** A pipeline {!default_depth} cycles deep. *)

val current_cycle : t -> int
val clock : t -> unit -> int
(** The cycle clock function, to plug into register arrays. *)

val earliest_admission : t -> Eventsim.Sim_time.t
(** The earliest instant >= now at which a new carrier may be admitted
    (one admission per cycle). *)

val admit : t -> has_packet:bool -> Eventsim.Sim_time.t
(** Record an admission at the current time (the caller must have
    scheduled itself no earlier than [earliest_admission]) and return
    the pipeline exit time. Raises [Invalid_argument] if the admission
    slot is already taken this cycle. *)

val admissions : t -> int
val packet_carriers : t -> int
val empty_carriers : t -> int
val busy_fraction : t -> float
(** Admissions divided by elapsed cycles (0 before the first cycle). *)
