(** Windowed heavy-hitter detection with a count-min sketch that must
    be reset every measurement window (§1: "when a CMS is used in a
    baseline PISA architecture, the control plane must be responsible
    for performing the reset operation").

    Two variants of the same program:
    - [Timer_reset]: a data-plane timer event zeroes the sketch at
      exact window boundaries — no control-plane involvement.
    - [Control_plane_reset]: a control-plane agent is asked to reset
      every window; each reset pays channel latency + jitter and queues
      under the agent's op-rate limit, so windows stretch and samples
      from the previous window pollute the next (E7 measures both the
      control-channel op volume and the resulting detection error).

    At each window boundary (just before the reset takes effect) the
    flows whose estimate exceeds the threshold are recorded as that
    window's heavy hitters. *)

type mode = Timer_reset | Control_plane_reset of Evcore.Control_plane.t

type window_report = {
  window_index : int;
  boundary_time : int;  (** when the reset actually happened *)
  heavy_hitters : (int * int) list;  (** (key, estimated packets) *)
}

type t

val reports : t -> window_report list
val resets : t -> int
val state_bits : t -> int
val reset_lag : t -> Stats.Welford.t
(** Actual reset time minus ideal window boundary, in ns. *)

val program :
  mode:mode ->
  window:Eventsim.Sim_time.t ->
  threshold_packets:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** The sketch is 1024 wide and 3 deep. *)
