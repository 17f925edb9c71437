(** Register allocator: every data-plane program allocates its stateful
    arrays through one of these so the experiment harness can meter the
    program's total state footprint (the paper's §2 claims an at least
    four-fold reduction for microburst detection; E6 measures it from
    these allocations). *)

type t

val create : ?clock:(unit -> int) -> unit -> t
val array : t -> name:string -> entries:int -> width:int -> Register_array.t
val registers : t -> Register_array.t list
(** In allocation order. *)

val total_bits : t -> int

val clock : t -> (unit -> int) option
(** The cycle clock arrays are created against, if any. *)

val register_stats : t -> name:string -> (unit -> (string * int) list) -> unit
(** Register a stats exporter for an extern allocated through this
    allocator (e.g. an {!Efsm}). The switch's metrics exporter
    publishes every registered series with an [extern=name] label, so
    extern counters flow into merged conformance snapshots without the
    extern knowing about [Obs]. *)

val stats_exporters : t -> (string * (unit -> (string * int) list)) list
(** In registration order. *)
