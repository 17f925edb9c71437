type t = int

let mask = (1 lsl 48) - 1
let of_int v = v land mask
let broadcast = mask
let zero = 0

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then invalid_arg ("Mac_addr.of_string: " ^ s);
  List.fold_left
    (fun acc part ->
      let v = try int_of_string ("0x" ^ part) with Failure _ -> invalid_arg ("Mac_addr.of_string: " ^ s) in
      if v < 0 || v > 0xff then invalid_arg ("Mac_addr.of_string: " ^ s);
      (acc lsl 8) lor v)
    0 parts

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((t lsr 40) land 0xff)
    ((t lsr 32) land 0xff) ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let host n = of_int ((0x02 lsl 40) lor (n land 0xffffffff))
let switch_port ~switch ~port = of_int ((0x06 lsl 40) lor ((switch land 0xffff) lsl 16) lor (port land 0xffff))
let equal = Int.equal
let compare = Int.compare
let pp ppf t = Format.pp_print_string ppf (to_string t)
