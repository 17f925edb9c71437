module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Ethernet = Netcore.Ethernet
module Mac_addr = Netcore.Mac_addr
module Program = Evcore.Program
module Event = Devents.Event

type Packet.payload += Hula_probe of { origin_leaf : int; mutable max_util : int }

type params = {
  num_leaves : int;
  num_spines : int;
  hosts_per_leaf : int;
  link_rate_gbps : float;
  probe_period : Eventsim.Sim_time.t;
  util_period : Eventsim.Sim_time.t;
  util_alpha : float;
  flowlet_timeout : Eventsim.Sim_time.t option;
}

let default_params =
  {
    num_leaves = 4;
    num_spines = 4;
    hosts_per_leaf = 4;
    link_rate_gbps = 10.;
    probe_period = Eventsim.Sim_time.us 100;
    util_period = Eventsim.Sim_time.us 100;
    util_alpha = 0.3;
    flowlet_timeout = None;
  }

type mode =
  | Event_driven
  | No_probes (* plain flow-hash ECMP: the probe-less baseline *)
  | Cp_probes of {
      cp : Evcore.Control_plane.t;
      inject : (int -> Netcore.Packet.t -> unit) ref;
    }

type leaf_state = {
  best_hop_reg : Pisa.Register_array.t; (* per dst leaf: uplink port *)
  util : Stats.Ewma.t array; (* per port *)
}

type t = {
  params : params;
  mode : mode;
  mutable leaves : (int, leaf_state) Hashtbl.t;
  origin_times : (int, int list ref) Hashtbl.t; (* leaf -> origination instants *)
  mutable hop_changes : int;
  mutable probes_delivered : int;
}

let create params mode =
  {
    params;
    mode;
    leaves = Hashtbl.create 8;
    origin_times = Hashtbl.create 8;
    hop_changes = 0;
    probes_delivered = 0;
  }

let probe_packet ~origin_leaf =
  let eth =
    Ethernet.make ~dst:Mac_addr.broadcast
      ~src:(Mac_addr.switch_port ~switch:origin_leaf ~port:0)
      ~ethertype:Ethernet.ethertype_event
  in
  Packet.create ~eth ~payload:(Hula_probe { origin_leaf; max_util = 0 }) ~payload_len:16 ()

let dst_leaf_of pkt =
  match pkt.Packet.ip with
  | Some ip -> (Ipv4_addr.to_int ip.Netcore.Ipv4.dst lsr 16) land 0xff
  | None -> -1

let dst_host_of pkt =
  match pkt.Packet.ip with
  | Some ip -> Ipv4_addr.to_int ip.Netcore.Ipv4.dst land 0xffff
  | None -> 0

(* Shared per-switch utilisation machinery: transmit-side byte
   counters per port (fed by Packet-Transmitted events), decayed into
   an EWMA of link utilisation each util window. A probe arriving on
   port [p] reads the tx utilisation of [p] — the direction data
   towards the probe's origin will flow. *)
let make_util_tracker t ctx ~num_ports =
  let tx_bytes =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"hula_tx_bytes" ~entries:num_ports
      ~width:48
  in
  let util = Array.init num_ports (fun _ -> Stats.Ewma.create ~alpha:t.params.util_alpha) in
  let window_bits =
    t.params.link_rate_gbps *. 1e9 *. Eventsim.Sim_time.to_sec t.params.util_period
  in
  let sample () =
    Array.iteri
      (fun port e ->
        let bytes = Pisa.Register_array.read tx_bytes port in
        Pisa.Register_array.write tx_bytes port 0;
        ignore (Stats.Ewma.update e (float_of_int (bytes * 8) /. window_bits)))
      util
  in
  let on_transmit (ev : Event.transmit_event) =
    if ev.Event.port >= 0 && ev.Event.port < num_ports then
      ignore (Pisa.Register_array.add tx_bytes ev.Event.port ev.Event.pkt_len)
  in
  (util, sample, on_transmit)

let per_mille e = int_of_float (Float.min 1000. (Stats.Ewma.value e *. 1000.))

let leaf_program t leaf_id : Program.spec =
 fun ctx ->
  let p = t.params in
  let num_ports = p.hosts_per_leaf + p.num_spines in
  let best_hop_reg =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"hula_best_hop" ~entries:p.num_leaves
      ~width:8
  in
  let best_util_reg =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"hula_best_util" ~entries:p.num_leaves
      ~width:10
  in
  Pisa.Register_array.fill best_hop_reg 0xff (* 0xff = no probe yet *);
  Pisa.Register_array.fill best_util_reg 1000;
  (* Flowlet state: per flow slot, the assigned uplink and the last
     packet time (HULA Sec 4.2). *)
  let flowlet_slots = 256 in
  let flowlet_hop =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"hula_flowlet_hop" ~entries:flowlet_slots
      ~width:8
  in
  let flowlet_last =
    Pisa.Register_alloc.array ctx.Program.alloc ~name:"hula_flowlet_last"
      ~entries:flowlet_slots ~width:62
  in
  Pisa.Register_array.fill flowlet_hop 0xff;
  let util, sample_util, on_transmit = make_util_tracker t ctx ~num_ports in
  Hashtbl.replace t.leaves leaf_id { best_hop_reg; util };
  ignore (ctx.Program.add_timer ~period:p.util_period);
  let record_origination () =
    let cell =
      match Hashtbl.find_opt t.origin_times leaf_id with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace t.origin_times leaf_id c;
          c
    in
    cell := ctx.Program.now () :: !cell
  in
  (match t.mode with
  | No_probes -> ()
  | Event_driven ->
      ctx.Program.configure_pktgen ~period:p.probe_period
        ~template:(fun _ ->
          record_origination ();
          probe_packet ~origin_leaf:leaf_id)
        ()
  | Cp_probes { cp; inject } ->
      ignore
        (Evcore.Control_plane.periodic cp ~period:p.probe_period (fun () ->
             record_origination ();
             !inject leaf_id (probe_packet ~origin_leaf:leaf_id))));
  let uplinks = List.init p.num_spines (fun s -> p.hosts_per_leaf + s) in
  let handle_probe pkt origin_leaf (probe_util : int) =
    let port = pkt.Packet.meta.Packet.ingress_port in
    if origin_leaf = leaf_id then
      (* Our own probe entering the pipeline: fan out over all
         uplinks. *)
      Program.Multicast uplinks
    else begin
      t.probes_delivered <- t.probes_delivered + 1;
      let link_util = per_mille util.(port) in
      let path_util = max probe_util link_util in
      let best = Pisa.Register_array.read best_util_reg origin_leaf in
      let best_port = Pisa.Register_array.read best_hop_reg origin_leaf in
      (* HULA update rule: strictly better path wins; the current best
         path is always refreshed (its utilisation may have grown). *)
      if path_util < best || best_port = port || best_port = 0xff then begin
        if best_port <> port then t.hop_changes <- t.hop_changes + 1;
        Pisa.Register_array.write best_util_reg origin_leaf path_util;
        Pisa.Register_array.write best_hop_reg origin_leaf port
      end;
      Program.Drop
    end
  in
  let ingress _ctx pkt =
    match pkt.Packet.payload with
    | Hula_probe { origin_leaf; max_util } -> handle_probe pkt origin_leaf max_util
    | _ ->
        let dst_leaf = dst_leaf_of pkt in
        if dst_leaf = leaf_id then Program.Forward (dst_host_of pkt mod p.hosts_per_leaf)
        else if dst_leaf < 0 || dst_leaf >= p.num_leaves then Program.Drop
        else begin
          let best () =
            let hop = Pisa.Register_array.read best_hop_reg dst_leaf in
            if hop <> 0xff then hop
            else
              (* ECMP fallback before any probe arrives. *)
              let h =
                match Packet.flow pkt with
                | Some f -> Netcore.Flow.hash f
                | None -> pkt.Packet.uid
              in
              p.hosts_per_leaf + Netcore.Hashes.fold_range h p.num_spines
          in
          match p.flowlet_timeout with
          | None -> Program.Forward (best ())
          | Some gap ->
              let slot =
                match Packet.flow pkt with
                | Some f -> Netcore.Hashes.fold_range (Netcore.Flow.hash f) flowlet_slots
                | None -> 0
              in
              let now = ctx.Program.now () in
              let last = Pisa.Register_array.read flowlet_last slot in
              let assigned = Pisa.Register_array.read flowlet_hop slot in
              Pisa.Register_array.write flowlet_last slot now;
              if assigned <> 0xff && now - last <= gap then Program.Forward assigned
              else begin
                let hop = best () in
                Pisa.Register_array.write flowlet_hop slot hop;
                Program.Forward hop
              end
        end
  in
  let timer _ctx (_ev : Event.timer_event) = sample_util () in
  let transmitted _ctx ev = on_transmit ev in
  Program.make ~name:(Printf.sprintf "hula-leaf%d" leaf_id) ~ingress ~timer ~transmitted ()

let spine_program t spine_id : Program.spec =
 fun ctx ->
  let p = t.params in
  let num_ports = p.num_leaves in
  let util, sample_util, on_transmit = make_util_tracker t ctx ~num_ports in
  ignore (ctx.Program.add_timer ~period:p.util_period);
  let ingress _ctx pkt =
    match pkt.Packet.payload with
    | Hula_probe ({ origin_leaf; max_util = _ } as probe) ->
        let port = pkt.Packet.meta.Packet.ingress_port in
        let link_util = per_mille util.(port) in
        probe.max_util <- max probe.max_util link_util;
        (* Fan the probe out to every other leaf. *)
        let downs =
          List.filter_map
            (fun l -> if l = origin_leaf || l = port then None else Some l)
            (List.init p.num_leaves Fun.id)
        in
        if downs = [] then Program.Drop else Program.Multicast downs
    | _ ->
        let dst_leaf = dst_leaf_of pkt in
        if dst_leaf >= 0 && dst_leaf < p.num_leaves then Program.Forward dst_leaf
        else Program.Drop
  in
  let timer _ctx (_ev : Event.timer_event) = sample_util () in
  let transmitted _ctx ev = on_transmit ev in
  Program.make ~name:(Printf.sprintf "hula-spine%d" spine_id) ~ingress ~timer ~transmitted ()

let program t sw : Program.spec =
  if sw < t.params.num_leaves then leaf_program t sw else spine_program t (sw - t.params.num_leaves)

let origination_gaps_us t ~leaf =
  match Hashtbl.find_opt t.origin_times leaf with
  | None -> [||]
  | Some c ->
      let times = List.rev !c in
      let rec go = function
        | a :: (b :: _ as rest) -> (float_of_int (b - a) /. 1e6) :: go rest
        | [ _ ] | [] -> []
      in
      Array.of_list (go times)

let best_hop t ~leaf ~dst_leaf =
  match Hashtbl.find_opt t.leaves leaf with
  | None -> None
  | Some st ->
      let v = Pisa.Register_array.read st.best_hop_reg dst_leaf in
      if v = 0xff then None else Some v

let hop_changes t = t.hop_changes
let probes_delivered t = t.probes_delivered

let util_estimate t ~leaf ~port =
  match Hashtbl.find_opt t.leaves leaf with
  | None -> 0.
  | Some st -> Stats.Ewma.value st.util.(port)
