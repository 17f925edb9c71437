type t = Fail_fast | Drop_event | Quarantine

let all = [ Fail_fast; Drop_event; Quarantine ]

let to_string = function
  | Fail_fast -> "fail-fast"
  | Drop_event -> "drop-event"
  | Quarantine -> "quarantine"

let of_string s =
  match String.lowercase_ascii s with
  | "fail-fast" | "fail_fast" | "failfast" | "off" -> Some Fail_fast
  | "drop-event" | "drop_event" | "drop" -> Some Drop_event
  | "quarantine" -> Some Quarantine
  | _ -> None

let names = List.map to_string all

(* Process-wide default, consulted by [Supervisor.default_config] (and
   hence [Event_switch.default_config]) at call time, so [evsim
   --resil-policy] reaches every switch an experiment creates
   internally. *)
let default = ref Quarantine
