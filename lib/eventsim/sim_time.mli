(** Simulation time.

    Time is an integer number of picoseconds, so both 10 Gb/s
    serialization (0.8 ns per byte = 800 ps) and a 200 MHz pipeline clock
    (5 ns = 5000 ps per cycle) are exact. A 63-bit int holds about 106
    days of picoseconds, far beyond any experiment here. *)

type t = int

val zero : t
val ps : int -> t
val ns : int -> t
val us : int -> t
val ms : int -> t

val to_ns : t -> float
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val tx_time : bytes:int -> gbps:float -> t
(** Serialization delay of [bytes] at [gbps] gigabits per second. *)

val pp : Format.formatter -> t -> unit
(** Human-readable with an adaptive unit. *)
