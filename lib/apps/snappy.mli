(** Snappy-style microburst detection for baseline (PSA) architectures,
    after Chen et al., "Catching the Microburst Culprits with Snappy"
    (SDN-NFV'18).

    Without enqueue/dequeue events, per-flow buffer occupancy must be
    {e approximated} from packet events alone: Snappy keeps a ring of
    [k] = 8 count-min-sketch snapshots (512x2 each, the Snappy paper's
    small configuration) of recently arrived bytes and estimates a
    flow's occupancy by summing the flow's counts over the snapshots
    that plausibly cover the bytes still buffered (inferred from the
    queue depth seen at egress). The cost of not having
    events, which E6 quantifies:

    - state: [k] sketches instead of one register array (the paper's
      "at least four-fold" reduction claim, §2);
    - detection runs at egress, {e after} the packet suffered the
      queueing delay, so detection lags the event-driven detector;
    - the occupancy estimate is approximate (sketch collisions and
      window quantisation), so precision/recall suffer. *)

type detection = { flow_id : int; estimate_bytes : int; time : int }

type t

val detections : t -> detection list
val detection_count : t -> int
val state_bits : t -> int

val program :
  ?slots:int ->
  ?buffer_bytes:int ->
  threshold_bytes:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [slots] must match the event-driven detector's hash size so flow
    ids are comparable (default 1024). *)
