(** What a supervisor does with a handler that raises or exhausts its
    watchdog budget.

    - [Fail_fast]: re-raise (wrapped in {!Supervisor.Failed}) — the
      pre-supervision behaviour, where one bad handler aborts the whole
      simulation. Kept as the "supervision off" baseline.
    - [Drop_event]: swallow the failure, drop the triggering event, keep
      the handler subscribed.
    - [Quarantine]: drop the event {e and} unsubscribe the handler, then
      re-enable it after an exponential backoff with deterministic
      seeded jitter (the default). *)

type t = Fail_fast | Drop_event | Quarantine

val to_string : t -> string
val of_string : string -> t option
val names : string list

val default : t ref
(** Process-wide default policy (initially [Quarantine]); set by
    [evsim --resil-policy] before experiments create their switches. *)
