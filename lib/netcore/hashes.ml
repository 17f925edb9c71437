let mix64 v =
  let z = Int64.add (Int64.of_int v) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let salted ~salt key = mix64 (key lxor mix64 (salt + 0x5bd1))

let fold_range h n =
  if n <= 0 then invalid_arg "Hashes.fold_range: n must be positive";
  (h land max_int) mod n
