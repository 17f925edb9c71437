(** The experiment registry: every reproduced table/figure experiment
    by name, so the bench harness and the CLI share one list. *)

type entry = {
  name : string;  (** CLI name, e.g. "table3" *)
  experiment_id : string;  (** e.g. "E3" *)
  paper_artifact : string;  (** e.g. "Table 3" *)
  run_and_print : metrics:Obs.Metrics.t option -> seed:int -> unit;
      (** Experiments wired for observability (table1, fig4-linerate,
          fig3-staleness, microburst) record scheduler, event-switch
          and traffic-manager series into [metrics]; the rest ignore
          it. *)
}

val all : entry list
val find : string -> entry option
val names : unit -> string list

val goldens : Conformance.golden list
(** The golden scenarios pinned under [test/golden/] (E23-E27), shared
    by the generator and the golden suite. *)
