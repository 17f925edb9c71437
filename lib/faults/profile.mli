(** Named chaos profiles for the CLI and experiments. *)

type t = Flaky_links | Burst_storm | Churn | Handler_faults

val to_string : t -> string
val of_string : string -> t option
val names : string list
