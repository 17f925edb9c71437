let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let std xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.)) 0. xs in
    sqrt (acc /. float_of_int n)

let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if s2 = 0. then 1. else s *. s /. (float_of_int n *. s2)

let normalized_rmse ~predicted ~actual =
  let n = Array.length actual in
  if n = 0 || n <> Array.length predicted then invalid_arg "Summary.normalized_rmse";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = predicted.(i) -. actual.(i) in
    acc := !acc +. (d *. d)
  done;
  let rmse = sqrt (!acc /. float_of_int n) in
  let m = mean actual in
  if m = 0. then rmse else rmse /. m
