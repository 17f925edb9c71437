(** Active queue management from congestion signals derived from
    enqueue/dequeue events (§3 Traffic Management, §5 "Computing
    Congestion Signals").

    Three drop policies over the same forwarding program:
    - [Taildrop]: no AQM; the traffic manager drops on overflow.
    - [Red]: random early detection on the EWMA of total buffer
      occupancy — the occupancy is exact because enqueue and dequeue
      events update it; the EWMA is refreshed on every enqueue event.
    - [Fred]: flow-level fairness a la FRED: per-active-flow buffer
      occupancy (exact, from events) plus active-flow count; a packet
      whose flow already holds more than [fair share * multiplier]
      bytes of the buffer is dropped at ingress.

    None of these are implementable on a baseline PISA architecture
    without approximations, which is the paper's point; E11 compares
    the fairness they achieve. *)

type policy =
  | Taildrop
  | Red of { min_th : int; max_th : int; max_p : float; weight : float }
  | Fred of { multiplier : float }
  | Pie of {
      target_delay : Eventsim.Sim_time.t;
      update_period : Eventsim.Sim_time.t;
      alpha : float;
      beta : float;
    }
      (** PIE (Pan et al., HPSR'13): a timer event periodically updates
          the drop probability from the estimated queueing delay
          (occupancy / departure rate, both event-maintained);
          ingress drops with that probability. *)

type t

val early_drops : t -> int
val ecn_marks : t -> int
val drop_probability : t -> float
(** PIE's current drop probability (0 for other policies). *)

val active_flows : t -> int
val state_bits : t -> int

val program :
  ?slots:int ->
  ?mark_instead_of_drop:bool ->
  policy:policy ->
  buffer_bytes:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [mark_instead_of_drop] turns RED drops into multi-bit ECN marks in
    [pkt.meta.mark] (the paper's "variants of ECN marking, with packets
    carrying multiple bits"). *)
