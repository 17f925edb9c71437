(** FPGA resource cost model (reproduces Table 3).

    We have no synthesis toolchain, so the model assigns each
    architectural block a documented LUT/FF/BRAM cost, calibrated so
    that (a) the baseline P4 switch lands in the utilisation range
    reported for the P4->NetFPGA reference switch on a Virtex-7 690T
    and (b) the *delta* contributed by the event blocks reproduces the
    paper's reported increases (LUT +0.5%, FF +0.4%, BRAM +2.0% of the
    device). The shape claim being tested is that event support is a
    marginal add-on — a few percent of the device — not the absolute
    LUT counts. *)

type cost = { luts : int; ffs : int; brams : int }
(** [brams] are 36 Kb blocks. *)

type component = { name : string; cost : cost }

type device = { name : string; capacity : cost }

val virtex7_690t : device
(** The NetFPGA SUME FPGA (XC7VX690T): 433,200 LUTs / 866,400 FFs /
    1,470 BRAM36. *)

val zero : cost
val add : cost -> cost -> cost
val sum : component list -> cost

val baseline_components : component list
(** MACs, DMA, parser, match-action stages, deparser, output queues —
    the baseline SUME P4 switch. *)

val event_components : component list
(** Event merger, timer unit, packet generator, link monitor,
    enqueue/dequeue/drop plumbing, event queues — what the SUME Event
    Switch adds. *)

val utilisation : device -> cost -> float * float * float
(** (LUT, FF, BRAM) fractions of the device. *)

val table3 : unit -> (string * float) list
(** [("Lookup Tables", 0.5); ("Flip Flops", 0.4); ("Block RAM", 2.0)]
    computed from the model (values rounded to one decimal). *)

val brams_for_bits : int -> int
(** BRAM36 blocks needed for a register footprint of that many bits. *)

val pp_cost : Format.formatter -> cost -> unit
