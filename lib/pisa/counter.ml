type t = { name : string; pkts : int array; byts : int array }

let create ~name ~entries =
  if entries <= 0 then invalid_arg "Counter.create";
  { name; pkts = Array.make entries 0; byts = Array.make entries 0 }

let count t ~index ~bytes =
  t.pkts.(index) <- t.pkts.(index) + 1;
  t.byts.(index) <- t.byts.(index) + bytes

let packets t i = t.pkts.(i)
let bytes t i = t.byts.(i)
let total_packets t = Array.fold_left ( + ) 0 t.pkts
let total_bytes t = Array.fold_left ( + ) 0 t.byts

let reset t =
  Array.fill t.pkts 0 (Array.length t.pkts) 0;
  Array.fill t.byts 0 (Array.length t.byts) 0
