module Packet = Netcore.Packet
module Tcp = Netcore.Tcp
module Sim_time = Eventsim.Sim_time
module Program = Evcore.Program
module P = Cep.Pattern

let attr_other = 0
let attr_syn = 1

(* A connection-opening SYN (not SYN-ACK, not RST): the flag
   combination a flood forges. Parsed from the TCP header — the same
   hardening as the stateful firewall, so a marked or flag-less packet
   can neither trigger nor suppress the signature. *)
let pkt_attr pkt =
  match pkt.Packet.l4 with
  | Packet.Tcp tcp ->
      let has f = tcp.Tcp.flags land f <> 0 in
      if has Tcp.flag_syn && (not (has Tcp.flag_ack)) && not (has Tcp.flag_rst) then attr_syn
      else attr_other
  | Packet.Udp _ | Packet.No_l4 -> attr_other

(* Correlate by victim: the destination address. *)
let pkt_key pkt =
  match pkt.Packet.ip with
  | Some ip -> Netcore.Ipv4_addr.to_int ip.Netcore.Ipv4.dst
  | None -> 0

let pattern ~syns ~window =
  P.within window
    (P.count syns (P.atom ~label:"syn" ~lo:attr_syn ~hi:attr_syn Devents.Event.Ingress_packet))

let program ?slots ?timeout ?(syns = 16) ?(window = Sim_time.us 100)
    ?(tick_period = Sim_time.us 10) ?on_match ~out_port () =
  let c = Cep.Compile.compile ~tick_period (pattern ~syns ~window) in
  let forward ctx pkt =
    ignore (ctx : Program.ctx);
    Program.Forward (out_port pkt)
  in
  fst
    (Cep.Detector.program ?slots ?timeout ~pkt_attr ~pkt_key ~forward ?on_match
       ~name:"syn-signature" ~compiled:c ())
