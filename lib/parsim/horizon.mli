(** Conservative-synchronization horizon algebra.

    Pure arithmetic behind the lockstep engine, factored out so the
    safety rule is unit-testable on its own. The conservative
    guarantee: a shard whose neighbours have published execution
    horizons [h_j] may itself execute strictly below
    [min_j (h_j + lookahead)] — any cross-shard packet sent by
    neighbour [j] departs at or after [h_j]'s window and arrives no
    earlier than departure + lookahead, so nothing can land in the
    executing shard's past.

    The lockstep engine tiles simulated time into windows. Each round
    starts with every shard knowing every shard's earliest pending
    event ([no_event] when there is none) — published at the previous
    barrier as the earliest queued event plus the earliest arrival
    sent to that shard. Because cross-shard messages wait in mailboxes
    until the window barrier, every packet shard [j] sends
    during the coming window departs at or after [j]'s published next
    event [n_j] and lands no earlier than [n_j + d] for the cheapest
    cross link out of [j]. The fleet-wide bound
    [min_j (n_j + min_out_delay_j)] is therefore safe, and — computed
    by every shard from the same published array — identical
    everywhere, which preserves the lockstep rendezvous. Quiescent
    shards publish [no_event] and stop constraining the fleet: sparse
    traffic no longer serializes at min-delay granularity. *)

val no_event : int
(** Sentinel a quiescent shard publishes as its next-event time. Larger
    than any real timestamp, small enough that [no_event + delay] never
    overflows. *)

val adaptive_bound : min_out_delays:int array -> next_events:int array -> until:int -> int
(** [min_j (next_events.(j) + min_out_delays.(j))] clamped from above
    to [until + 1]. Entries of [min_out_delays] at or above [no_event]
    mean "shard [j] has no cross link into anyone" and are skipped, as
    effectively are shards whose [next_events] is [no_event]. With all
    shards quiescent (or no cross links at all) the bound is
    [until + 1]: one final window closes out the run. Never below
    [min_j next_events.(j) + 1] when some constraining edge exists, so
    a round always makes progress past the earliest published event.
    Raises [Invalid_argument] on array length mismatch. *)
