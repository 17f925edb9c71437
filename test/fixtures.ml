(* Programs the tests build switches around. *)

(* Forwards every packet to [out_port]. *)
let forward_all ~out_port : Evcore.Program.spec =
 fun _ctx ->
  Evcore.Program.make ~name:"fwd" ~ingress:(fun _ctx _pkt -> Evcore.Program.Forward out_port) ()
