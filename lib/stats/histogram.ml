type t = {
  counts : int array;
  upper : float array; (* bucket i holds [2^(i-1), 2^i), bucket 0 [0, 1) *)
  mutable underflow : int;
  mutable total : int;
  (* [sum; max_seen] in a flat float array: as mutable fields of this
     mixed record each store would box a fresh float, and [add] sits on
     per-event hot paths (staleness tracking in the shared registers). *)
  acc : float array;
}

let log2 ~max_exponent =
  if max_exponent <= 0 then invalid_arg "Histogram.log2";
  {
    counts = Array.make (max_exponent + 1) 0;
    upper = Array.init (max_exponent + 1) (fun i -> 2. ** float_of_int i);
    underflow = 0;
    total = 0;
    acc = [| 0.; neg_infinity |];
  }

let bucket_index x =
  if x < 0. then -1
  else if x < 1. then 0
  else
    (* floor(log2 x) = floor(log2 (floor x)) for x >= 1 (both lie in
       the same [2^k, 2^(k+1)) octave), so the bucket falls out of a
       few shift probes — no [Float.log2] C call per observation. *)
    let n = int_of_float x in
    let n = ref n and k = ref 0 in
    if !n lsr 32 <> 0 then begin n := !n lsr 32; k := !k + 32 end;
    if !n lsr 16 <> 0 then begin n := !n lsr 16; k := !k + 16 end;
    if !n lsr 8 <> 0 then begin n := !n lsr 8; k := !k + 8 end;
    if !n lsr 4 <> 0 then begin n := !n lsr 4; k := !k + 4 end;
    if !n lsr 2 <> 0 then begin n := !n lsr 2; k := !k + 2 end;
    if !n lsr 1 <> 0 then incr k;
    1 + !k

let add_n t x n =
  t.total <- t.total + n;
  t.acc.(0) <- t.acc.(0) +. (x *. float_of_int n);
  if x > t.acc.(1) then t.acc.(1) <- x;
  let i = bucket_index x in
  if i < 0 then t.underflow <- t.underflow + n
  else if i < Array.length t.counts then t.counts.(i) <- t.counts.(i) + n

let add t x = add_n t x 1
let count t = t.total
let mean t = if t.total = 0 then 0. else t.acc.(0) /. float_of_int t.total
let max_seen t = t.acc.(1)

let percentile t q =
  if t.total = 0 then nan
  else begin
    let target = q *. float_of_int t.total in
    let acc = ref (float_of_int t.underflow) in
    let result = ref nan in
    (try
       for i = 0 to Array.length t.counts - 1 do
         acc := !acc +. float_of_int t.counts.(i);
         if !acc >= target then begin
           result := t.upper.(i);
           raise Exit
         end
       done;
       result := t.acc.(1)
     with Exit -> ());
    (* Never report beyond the observed maximum. *)
    Float.min !result t.acc.(1)
  end
