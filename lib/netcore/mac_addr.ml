type t = int

let mask = (1 lsl 48) - 1
let of_int v = v land mask
let broadcast = mask

let host n = of_int ((0x02 lsl 40) lor (n land 0xffffffff))
let switch_port ~switch ~port = of_int ((0x06 lsl 40) lor ((switch land 0xffff) lsl 16) lor (port land 0xffff))
