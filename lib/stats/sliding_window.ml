type t = {
  data : float array;
  slot_width : float;
  mutable head : int; (* index of the newest slot *)
  mutable sum : float;
}

let create ~slots ~slot_width =
  if slots <= 0 || slot_width <= 0. then invalid_arg "Sliding_window.create";
  { data = Array.make slots 0.; slot_width; head = 0; sum = 0. }

let add t x =
  t.data.(t.head) <- t.data.(t.head) +. x;
  t.sum <- t.sum +. x

let rotate t =
  let n = Array.length t.data in
  let next = (t.head + 1) mod n in
  t.sum <- t.sum -. t.data.(next);
  t.data.(next) <- 0.;
  t.head <- next

let completed_rate t =
  let n = Array.length t.data in
  if n <= 1 then t.sum /. t.slot_width
  else (t.sum -. t.data.(t.head)) /. (float_of_int (n - 1) *. t.slot_width)
