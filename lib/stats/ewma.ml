type t = { alpha : float; mutable value : float; mutable primed : bool }

let create ~alpha =
  if alpha <= 0. || alpha > 1. then invalid_arg "Ewma.create: alpha must be in (0,1]";
  { alpha; value = 0.; primed = false }

let update t x =
  if t.primed then t.value <- t.value +. (t.alpha *. (x -. t.value))
  else begin
    t.value <- x;
    t.primed <- true
  end;
  t.value

let value t = t.value
