(** Per-flow rate enforcer on the EFSM extern: each flow accumulates
    bytes into a window register; crossing [limit_bytes] within one
    window moves the flow to a throttled state where every packet is
    dropped until the next window tick. The tick is the OPP-style
    {e global transition}: a timer event broadcasts an input word to
    every tracked flow ({!Pisa.Efsm.step_all}), resetting windows and
    releasing throttled flows in one sweep. *)

val tick : int
(** The broadcast input word (1; packet lengths are always larger). *)

type t

val efsm : t -> Pisa.Efsm.t
(** Only valid after the program has been installed on a switch. *)

val forwarded : t -> int
val dropped : t -> int
val windows : t -> int
(** Window ticks delivered so far. *)

val program :
  ?slots:int ->
  ?window:Eventsim.Sim_time.t ->
  limit_bytes:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [window] defaults to 100 µs. [limit_bytes] is the per-flow byte
    budget per window; raises [Invalid_argument] if it is not > 1. *)
