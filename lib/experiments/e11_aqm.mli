(** E11 — §3/§5: AQM policies built from event-derived congestion
    signals; fairness under UDP congestion. *)

type policy_result = {
  policy : string;
  goodput_gbps : float list;
  jain : float;
  maxmin_err : float;
  early_drops : int;
  tm_drops : int;
}

type result = { policies : policy_result list }

val run : ?seed:int -> unit -> result
val print : result -> unit
val name : string
