type t = {
  name : string;
  width : int;
  mask : int;
  data : int array;
  clock : (unit -> int) option;
  mutable last_access_cycle : int;
  mutable conflicts : int;
}

let create ?clock ~name ~entries ~width () =
  if entries <= 0 then invalid_arg "Register_array.create: entries must be positive";
  if width <= 0 || width > 62 then invalid_arg "Register_array.create: width must be in 1..62";
  {
    name;
    width;
    mask = (if width = 62 then max_int else (1 lsl width) - 1);
    data = Array.make entries 0;
    clock;
    last_access_cycle = min_int;
    conflicts = 0;
  }

let name t = t.name
let entries t = Array.length t.data
let bits t = Array.length t.data * t.width

let touch t =
  match t.clock with
  | None -> ()
  | Some clock ->
      let cycle = clock () in
      if cycle = t.last_access_cycle then t.conflicts <- t.conflicts + 1
      else t.last_access_cycle <- cycle

let check_index t i =
  if i < 0 || i >= Array.length t.data then
    invalid_arg (Printf.sprintf "Register_array %s: index %d out of [0,%d)" t.name i (Array.length t.data))

let read t i =
  check_index t i;
  touch t;
  t.data.(i)

let write t i v =
  check_index t i;
  touch t;
  t.data.(i) <- v land t.mask

let add t i delta =
  check_index t i;
  touch t;
  let v = (t.data.(i) + delta) land t.mask in
  t.data.(i) <- v;
  v

let fill t v = Array.fill t.data 0 (Array.length t.data) (v land t.mask)
let reset t = fill t 0

let clear_entry t i =
  check_index t i;
  t.data.(i) <- 0
let conflicts t = t.conflicts
let to_array t = Array.copy t.data
