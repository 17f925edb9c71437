(** Time-windowed flow-rate measurement (§5, "Time-Windowed Network
    Measurement"): timer events rotate a shift register of
    per-interval byte counts, giving a sliding-window rate estimate
    entirely in the data plane. *)

type t

val estimate_bps : t -> flow_slot:int -> float
(** Current windowed estimate in bytes/sec for a flow slot. *)

val rotations : t -> int

val program :
  ?slots:int ->
  ?window_slices:int ->
  slice:Eventsim.Sim_time.t ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** The window is [window_slices * slice] (defaults: 8 slices). A
    timer fires every [slice] to rotate all per-flow shift
    registers. *)
