(** Per-flow token-bucket policing (§3 Traffic Management: "if we use
    timer events, token bucket meters can be constructed from simple
    registers").

    - [Timer_bucket]: tokens live in registers; a timer event refills
      all buckets every [refill_period]. Refill granularity bounds the
      conformance error, which E13 sweeps.
    - [Extern_meter]: the fixed-function srTCM primitive a baseline
      PISA target would expose ({!Pisa.Meter}); exact continuous-time
      refill but not programmable.

    Both police to the same committed rate; non-conforming packets are
    dropped at ingress. *)

type mode = Timer_bucket of { refill_period : Eventsim.Sim_time.t } | Extern_meter

type t

val total_accepted_bytes : t -> int
val state_bits : t -> int

val program :
  ?slots:int ->
  mode:mode ->
  cir_bytes_per_sec:float ->
  burst_bytes:int ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
