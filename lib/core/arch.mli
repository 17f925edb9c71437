(** Architecture descriptions.

    A target architecture "exposes the precise set of events that it
    supports via the P4 architecture description file" (§2). Here that
    file is a value: the event classes the target exposes plus feature
    flags. Programs installed on a switch only receive events their
    architecture supports (and that they subscribed to by defining a
    handler). *)

type t = {
  name : string;
  events : Devents.Event.cls list;
  has_timers : bool;
  has_packet_generator : bool;
  has_recirculation : bool;
}

val baseline_psa : t
(** The Portable Switch Architecture (Figure 1): ingress and egress
    packet events, recirculation; no other events. *)

val sume_event_switch : t
(** The paper's prototype (§5, Figure 4): packet events plus enqueue,
    dequeue and drop (buffer-overflow) events, timer events, link
    status change events, and a configurable packet generator. *)

val event_pisa_full : t
(** The general event-driven PISA architecture the paper proposes: all
    thirteen classes of Table 1. *)

val tofino_like : t
(** A modern fixed-function-assisted baseline (§6): packet events, a
    control-plane-configurable packet generator (emulates timers) and
    recirculation (emulates dequeue events); no native events. *)

val supports : t -> Devents.Event.cls -> bool
val pp : Format.formatter -> t -> unit
