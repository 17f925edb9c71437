type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  flags : int;
}

let size = 20
let flag_fin = 0x001
let flag_syn = 0x002
let flag_rst = 0x004
let flag_ack = 0x010

let make ~src_port ~dst_port ?(seq = 0) ?(flags = 0) () =
  {
    src_port = src_port land 0xffff;
    dst_port = dst_port land 0xffff;
    seq = seq land 0xffffffff;
    flags = flags land 0x1ff;
  }
