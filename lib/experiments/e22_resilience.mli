(** E22 — resilience under handler faults: what supervision buys.

    Replays one scenario — the microburst detector under injected
    handler crashes, watchdog-busting slowdowns and burst storms — as
    four legs differing only in resilience configuration: [fail-fast]
    (supervision off: the first fault aborts), [drop-event],
    [quarantine] (the default: unsubscribe + exponential backoff), and
    [quarantine+shed] (quarantine plus merger shedding at an
    aggressive watermark). Completed legs run the periodic runtime
    invariant checker in record mode. Fully deterministic per seed. *)

type leg = {
  label : string;
  policy : string;
  completed : bool;
  failed_handler : string option;
  sent : int;
  burst_injected : int;
  received : int;
  link_lost : int;
  switch_dropped : int;
  balance : int;  (** conservation residue; 0 = nothing unaccounted *)
  crashes : int;
  watchdog_trips : int;
  trips : int;
  recoveries : int;
  permanent_failures : int;
  dropped_events : int;
  shed_events : int;
  detections : int;
  invariant_passes : int;
  invariant_violations : int;
}

type result = { seed : int; legs : leg list }

val run : ?metrics:Obs.Metrics.t -> ?seed:int -> unit -> result

val passes : result -> bool
(** Fail-fast aborted; quarantine completed with at least one trip and
    one recovery, exact conservation and zero invariant violations;
    the shedding leg actually shed. *)

val print : result -> unit
val name : string
