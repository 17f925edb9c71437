(** Per-packet perturbations at link endpoints: seeded drop, duplicate
    and delay/reorder decisions, compiled into a {!Tmgr.Link.fate}
    function for {!Tmgr.Link.set_perturb}. *)

type config = {
  drop_p : float;  (** loss probability *)
  dup_p : float;  (** duplication probability *)
  max_extra_copies : int;  (** copies per duplication, uniform in [1, n] *)
  delay_p : float;  (** extra-latency probability *)
  max_extra_delay : Eventsim.Sim_time.t;
      (** uniform in [1, d]; exceeding the inter-packet gap reorders *)
}

val none : config
(** All probabilities zero: every packet gets [Deliver]. *)

val lossy : ?drop_p:float -> ?dup_p:float -> ?delay_p:float -> ?max_extra_delay:Eventsim.Sim_time.t -> unit -> config

val attach :
  rng:Stats.Rng.t -> ?on_decision:(Tmgr.Link.fate -> unit) -> config -> Tmgr.Link.t -> unit
(** Install the seeded fate on the link. One uniform draw per packet
    partitions [\[0,1)] into drop | duplicate | delay | deliver bands;
    [on_decision] observes every verdict (for injected/absorbed
    accounting). An all-zero config short-circuits to [Deliver] without
    touching the RNG, so a "faults disabled" hook costs no draw. The
    config is validated here, not per packet. *)
