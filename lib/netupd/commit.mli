(** The two-phase update transaction.

    One [t] drives a single policy version from proposal to
    {!Committed} or {!Rolled_back}:

    + [Installing] — install the new version's rules on every switch
      (old rules untouched; packets keep using the old version).
    + [Flipping] — once *every* install acked, flip each ingress to
      stamp the new version.
    + [Draining] — wait out the maximum packet lifetime so no
      old-version packet is still in flight.
    + [Gc] — garbage-collect the old version's rules.

    Every control op carries a sequence number, is retried with
    exponential backoff when its ack misses the deadline, and is
    deduplicated device-side (a retried op that landed twice applies
    once). Exhausting the bounded retries in a forward phase aborts the
    update and runs the mirror-image rollback — unflip any flipped
    ingresses, drain, remove the new rules — whose ops get a much
    larger retry budget so the backward path degrades (stale rules
    linger) rather than wedges. The protocol invariant: at any instant,
    every version some packet may carry is fully resident on every
    switch it can reach.

    The engine is deliberately deaf to wall structure: it talks to
    switches only through the closures in {!env}, so a controller
    replica that owns no switches still runs the identical transaction
    (see {!Controller}). *)

type action = Install | Flip | Unflip | Gc_old | Gc_new

type phase = Installing | Flipping | Draining | Gc | Unflipping | Rb_draining | Rb_gc | Finished

val phase_name : phase -> string

type outcome = Committed | Rolled_back

type config = {
  ack_timeout : Eventsim.Sim_time.t;  (** per-attempt ack deadline *)
  max_retries : int;  (** per op, forward direction — then abort *)
  rollback_max_retries : int;
      (** per op, backward direction; rollback ops retry at a steady
          [backoff_base] cadence (liveness over politeness) *)
  backoff_base : Eventsim.Sim_time.t;  (** doubles per forward retry *)
  backoff_cap : Eventsim.Sim_time.t;
  drain : Eventsim.Sim_time.t;  (** ≥ max packet lifetime in the network *)
}

val default_config : unit -> config
(** 12 us ack deadline, 3 forward / 12 rollback retries, 8 us backoff
    doubling to a 64 us cap, 20 us drain. *)

(** Aggregate op accounting, shared across transactions by the
    controller so conservation books can be balanced per run:
    [attempts = lost + (acks + dup_acks + late_acks) + supervisor-dropped]
    once the network is quiet. *)
type stats = {
  mutable attempts : int;  (** submissions, including retries *)
  mutable lost : int;  (** submissions the loss oracle dropped *)
  mutable acks : int;  (** first acks (one per resolved op) *)
  mutable dup_acks : int;  (** acks for already-acked ops (retry races) *)
  mutable late_acks : int;  (** acks for abandoned / torn-down ops *)
  mutable retries : int;
  mutable abandoned : int;  (** ops that exhausted their retry budget *)
  mutable canceled : int;  (** in-flight ops resolved by an abort *)
  mutable applied : int;  (** device mutations performed *)
  mutable deduped : int;  (** duplicate device deliveries skipped *)
  mutable gc_skipped : int;  (** rollbacks that left the new rules in *)
}

val fresh_stats : unit -> stats

type env = {
  sched : Eventsim.Scheduler.t;
  submit : switch:int -> (unit -> unit) -> unit;
      (** control channel down to a switch (pays CP latency/queueing) *)
  ack : switch:int -> (unit -> unit) -> unit;
      (** device-to-controller ack path *)
  lost : switch:int -> now:Eventsim.Sim_time.t -> bool;
      (** loss oracle, consulted once per attempt at submit time *)
  apply : switch:int -> action -> unit;
      (** device-side effect; called at most once per op (deduped) *)
  log : string -> unit;
      (** deterministic protocol log — retry schedules, phase
          transitions; digested by the QCheck determinism property *)
  next_seq : unit -> int;  (** global op sequence numbers *)
  stats : stats;
}

type t

val start :
  env -> config -> version:int -> targets:int array -> on_done:(outcome -> unit) -> t
(** Begin the transaction (submits the install ops immediately). *)

val phase : t -> phase
