let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  -.log1p (-.Rng.float rng) /. rate

let pareto rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Dist.pareto: parameters must be positive";
  scale /. ((1. -. Rng.float rng) ** (1. /. shape))

type zipf = { cdf : float array }

let build_zipf ~n ~alpha =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** alpha));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { cdf }

(* Built samplers by (n, alpha). A CDF is never written after it is
   built, so every domain may share it; the mutex guards the table. *)
let zipf_cache : (int * float, zipf) Hashtbl.t = Hashtbl.create 8
let zipf_lock = Mutex.create ()

let zipf ~n ~alpha =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  Mutex.protect zipf_lock (fun () ->
      match Hashtbl.find_opt zipf_cache (n, alpha) with
      | Some z -> z
      | None ->
          let z = build_zipf ~n ~alpha in
          Hashtbl.add zipf_cache (n, alpha) z;
          z)

let zipf_draw rng z =
  let u = Rng.float rng in
  (* Binary search for the first index whose CDF exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1
