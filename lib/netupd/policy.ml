type rule = { key : int; port : int }
type t = { name : string; version : int; tables : rule list array }

let make ~name tables = { name; version = 0; tables }
let with_version t version = { t with version }
let name t = t.name
let version t = t.version
let switches t = Array.length t.tables
let rules t sw = t.tables.(sw)

(* Ring port convention (Evcore.Topology.ring): port 0 = local host,
   port 1 = clockwise neighbour (sw+1), port 2 = counter-clockwise. *)
let cw_port = 1
let ccw_port = 2

(* The clockwise path sw -> dst crosses ring link [l] (the link between
   switches l and l+1) iff l lies in the arc [sw, sw+d). *)
let cw_crosses ~switches ~sw ~dst l =
  let d = (dst - sw + switches) mod switches in
  (l - sw + switches) mod switches < d

let ring_tables ~switches choose =
  Array.init switches (fun sw ->
      List.init switches (fun dst ->
          { key = dst; port = (if dst = sw then 0 else choose ~sw ~dst) }))

let ring_threshold ~switches ~ccw_at ~name () =
  make ~name
    (ring_tables ~switches (fun ~sw ~dst ->
         let d = (dst - sw + switches) mod switches in
         if d >= ccw_at then ccw_port else cw_port))

let ring_uniform ~switches ~name () = ring_threshold ~switches ~ccw_at:switches ~name ()

let ring_avoiding ~switches ~link ~name () =
  make ~name
    (ring_tables ~switches (fun ~sw ~dst ->
         if cw_crosses ~switches ~sw ~dst link then ccw_port else cw_port))
