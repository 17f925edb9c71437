(** Point-to-point link between two device ports.

    Carries packets with a propagation delay; supports failure
    injection. When the link fails (or is restored), each endpoint's
    PHY notices after [detection_delay] and calls its status callback —
    which an event-driven switch turns into a Link Status Change event,
    while a baseline switch must wait for control-plane polling.
    Packets in flight when the failure occurs, and packets sent while
    down, are lost.

    Status notifications are epoch-tagged: under rapid flapping only
    the notification matching the link's current epoch is delivered, so
    an endpoint never observes a stale status that disagrees with
    {!is_up} at delivery time (dropped ones are counted by
    {!stale_notifications}).

    A {e perturbation} hook lets a fault injector decide a per-packet
    {!fate} (drop / extra delay / duplication) at send time — the
    mechanism behind [Faults.Perturb]. Without a hook installed the
    link behaves exactly as before. *)

type endpoint = {
  deliver : Netcore.Packet.t -> unit;
  notify_status : up:bool -> unit;
}

(** What a perturbation decides for one packet. *)
type fate =
  | Deliver  (** normal delivery after the propagation delay *)
  | Drop  (** silently lost (counted in {!lost} and {!perturb_drops}) *)
  | Delay of Eventsim.Sim_time.t
      (** extra latency on top of the propagation delay; large enough
          values reorder the packet behind later traffic *)
  | Duplicate of int  (** deliver plus [n] extra copies *)

type t

val create :
  sched:Eventsim.Scheduler.t ->
  ?delay:Eventsim.Sim_time.t ->
  ?detection_delay:Eventsim.Sim_time.t ->
  a:endpoint ->
  b:endpoint ->
  unit ->
  t
(** Defaults: 1 us propagation, 10 us failure detection. *)

val send : t -> from_a:bool -> Netcore.Packet.t -> unit
val fail : t -> unit
val restore : t -> unit
val is_up : t -> bool
val delivered : t -> int
val lost : t -> int

val set_perturb : t -> (from_a:bool -> Netcore.Packet.t -> fate) -> unit
(** Install a perturbation, replacing any earlier one; it is consulted
    once per [send] while the link is up. *)

val perturb_drops : t -> int
(** Packets a perturbation dropped (also included in {!lost}). *)

val perturb_dups : t -> int
(** Extra copies a perturbation created (each also counts in
    {!delivered} when it arrives). *)

val perturb_delays : t -> int
val stale_notifications : t -> int
(** Status notifications suppressed because a newer flap superseded
    them before the PHY detection delay elapsed. *)
