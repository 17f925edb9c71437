(** Weighted fair queueing via PIFO ranks (§3: "we can construct a
    complete, programmable packet scheduler using our event-driven
    model in combination with the recently proposed Push-In-First-Out
    (PIFO) queue").

    Start-Time Fair Queueing over three event classes:

    - ingress computes each packet's virtual start time
      [max(V, finish[flow])] as its PIFO rank and advances
      [finish[flow]] by [len/weight];
    - {e dequeue events} advance the virtual time [V] to the start tag
      of the packet entering service (carried in [deq_meta]) — the
      signal a baseline architecture cannot see;
    - {e buffer overflow events} roll back the finish tag of evicted
      packets (carried in [enq_meta]), without which a backlogged
      flow's tags run away and rank-based eviction starves it.

    Install with a TM configured with [Pifo_sched] and with the PIFO
    capacity (rank-aware eviction) as the binding drop mechanism; a
    blind shared-pool tail drop would equalise loss and erase the
    weights. With weights 1:3 at 2x overload the measured goodput
    split is 3.00 (see [examples/wfq_demo.ml]). *)

type t

val state_bits : t -> int

val program :
  ?slots:int ->
  weight_of:(flow_slot:int -> int) ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [weight_of] returns a positive integer weight per flow slot. *)
