(** E3 — reproduces Table 3: FPGA resource cost of event support on a
    Virtex-7 690T, from the documented component cost model. *)

type result = {
  device : Resmodel.Resource_model.device;
  baseline : Resmodel.Resource_model.cost;
  event_extra : Resmodel.Resource_model.cost;
  increases : (string * float) list;
}

val run : unit -> result
val print : result -> unit
val name : string
