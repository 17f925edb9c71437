(* The 64-bit state lives in 8 bytes, read and written with the unboxed
   bytes primitives: a mutable [int64] field would box a fresh state on
   every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let split t = of_state (int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

(* Rejection sampling to avoid modulo bias. Top-level, not a local
   closure of [int]: capturing [t] and [bound] would allocate per draw. *)
let rec below t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r *. 0x1.0p-53
