(** Data-plane liveness monitoring (§5 "Liveness Monitoring in the Data
    Plane"): each switch periodically transmits echo requests to its
    neighbor and tracks the last time it heard a reply; a timer handler
    declares the neighbor dead after [timeout] and notifies a central
    monitor — with no control-plane involvement in the event-driven
    variant.

    [Cp_driven] is the baseline: the control plane injects the pings
    and polls the last-heard register, so both probing and detection
    pay channel latency, jitter and op-rate limiting. The echo
    {e responder} logic is pure packet processing and runs on any
    architecture.

    Detection latency (E9) = declared-dead time minus the link-failure
    instant. *)

type Netcore.Packet.payload +=
  | Echo_request of { origin : int; seq : int }
  | Echo_reply of { origin : int; seq : int }

type mode =
  | Event_driven of { probe_period : Eventsim.Sim_time.t; check_period : Eventsim.Sim_time.t }
  | Cp_driven of {
      cp : Evcore.Control_plane.t;
      probe_period : Eventsim.Sim_time.t;
      check_period : Eventsim.Sim_time.t;
      inject : (Netcore.Packet.t -> unit) ref;
          (** wire to [Event_switch.inject_from_control_plane] after
              creating the switch *)
    }

type t

val declared_dead_at : t -> int option
val declared_alive_at : t -> int option
(** First probe reply after having been declared dead. *)

val probes_sent : t -> int
val replies_heard : t -> int

val program :
  mode:mode ->
  timeout:Eventsim.Sim_time.t ->
  neighbor_port:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** The program both monitors its neighbor over [neighbor_port] and
    answers the neighbor's echoes; non-echo traffic is forwarded via
    [out_port]. *)
