type t = int

let mask = 0xffffffff
let of_int v = v land mask
let to_int t = t

let of_octets a b c d =
  of_int (((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8) lor (d land 0xff))

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let oct x =
          let v = int_of_string x in
          if v < 0 || v > 255 then failwith "octet";
          v
        in
        of_octets (oct a) (oct b) (oct c) (oct d)
      with Failure _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let host ~subnet n = of_octets 10 (subnet land 0xff) ((n lsr 8) land 0xff) (n land 0xff)

let equal = Int.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)
