(** Batch statistics over complete sample sets. *)

val mean : float array -> float
val std : float array -> float
val jain_fairness : float array -> float
(** Jain's fairness index: [(sum x)^2 / (n * sum x^2)]; 1.0 means all
    equal. Returns 1.0 for an empty or all-zero input. *)

val normalized_rmse : predicted:float array -> actual:float array -> float
(** Root-mean-square error divided by the mean of [actual]; used to score
    estimation accuracy (rate estimates, utilization estimates). *)
