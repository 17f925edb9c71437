type color = Green | Yellow | Red

type t = {
  cir : float; (* bytes per second *)
  cbs : float;
  ebs : float;
  mutable tc : float;
  mutable te : float;
  mutable last_ps : int;
}

let create ~cir_bytes_per_sec ~cbs ~ebs =
  if cir_bytes_per_sec <= 0. || cbs <= 0 || ebs < 0 then invalid_arg "Meter.create";
  {
    cir = cir_bytes_per_sec;
    cbs = float_of_int cbs;
    ebs = float_of_int ebs;
    tc = float_of_int cbs;
    te = float_of_int ebs;
    last_ps = 0;
  }

let refill t ~now_ps =
  if now_ps > t.last_ps then begin
    let dt = float_of_int (now_ps - t.last_ps) *. 1e-12 in
    let tokens = t.cir *. dt in
    (* RFC 2697: overflow of the committed bucket spills into the excess
       bucket. *)
    let tc' = t.tc +. tokens in
    if tc' > t.cbs then begin
      t.te <- Float.min t.ebs (t.te +. (tc' -. t.cbs));
      t.tc <- t.cbs
    end
    else t.tc <- tc';
    t.last_ps <- now_ps
  end

let mark t ~now_ps ~bytes =
  refill t ~now_ps;
  let b = float_of_int bytes in
  if t.tc >= b then begin
    t.tc <- t.tc -. b;
    Green
  end
  else if t.te >= b then begin
    t.te <- t.te -. b;
    Yellow
  end
  else Red

let tokens t ~now_ps =
  refill t ~now_ps;
  (t.tc, t.te)

let color_to_string = function Green -> "green" | Yellow -> "yellow" | Red -> "red"
