type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create () = { times = Array.make 64 0.; values = Array.make 64 0.; len = 0 }

let grow t =
  let cap = Array.length t.times * 2 in
  let times = Array.make cap 0. and values = Array.make cap 0. in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let add t ~time ~value =
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let length t = t.len

let nth t i =
  if i < 0 || i >= t.len then invalid_arg "Time_series.nth";
  (t.times.(i), t.values.(i))

let last t = if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.times.(i) t.values.(i)
  done;
  !acc

let max_value t = fold t ~init:neg_infinity ~f:(fun acc _ v -> Float.max acc v)
