type t = int

let zero = 0
let ps x = x
let ns x = x * 1_000
let us x = x * 1_000_000
let ms x = x * 1_000_000_000
let to_ns t = float_of_int t /. 1e3
let to_us t = float_of_int t /. 1e6
let to_ms t = float_of_int t /. 1e9
let to_sec t = float_of_int t /. 1e12

let tx_time ~bytes ~gbps =
  if gbps <= 0. then invalid_arg "Sim_time.tx_time: rate must be positive";
  (* 1 bit at [gbps] Gb/s takes 1000/gbps picoseconds. *)
  int_of_float (Float.round (float_of_int (bytes * 8) *. 1000. /. gbps))

let pp ppf t =
  if t >= 1_000_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fus" (to_us t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fns" (to_ns t)
  else Format.fprintf ppf "%dps" t
