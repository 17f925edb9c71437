module Sim_time = Eventsim.Sim_time

type link = {
  link_id : int;
  a : int * int;
  b : int * int;
  delay : Sim_time.t;
  detection_delay : Sim_time.t option;
}

type attachment = { host : int; switch : int; port : int; host_delay : Sim_time.t }

type t = {
  switches : int;
  hosts : int;
  links : link list;
  attachments : attachment list;
}

let validate t =
  if t.switches < 1 then invalid_arg "Topology.validate: no switches";
  if t.hosts < 0 then invalid_arg "Topology.validate: negative host count";
  let seen = Hashtbl.create 64 in
  let claim ~who sw port =
    if sw < 0 || sw >= t.switches then
      invalid_arg (Printf.sprintf "Topology.validate: %s uses switch %d (of %d)" who sw t.switches);
    if port < 0 then invalid_arg (Printf.sprintf "Topology.validate: %s uses port %d" who port);
    if Hashtbl.mem seen (sw, port) then
      invalid_arg
        (Printf.sprintf "Topology.validate: switch %d port %d wired twice (%s and %s)" sw port
           (Hashtbl.find seen (sw, port))
           who);
    Hashtbl.add seen (sw, port) who
  in
  List.iteri
    (fun i l ->
      if l.link_id <> i then
        invalid_arg (Printf.sprintf "Topology.validate: link %d has link_id %d" i l.link_id);
      if l.delay <= 0 then
        invalid_arg (Printf.sprintf "Topology.validate: link %d has non-positive delay" i);
      let who = Printf.sprintf "link %d" i in
      claim ~who (fst l.a) (snd l.a);
      claim ~who (fst l.b) (snd l.b))
    t.links;
  let host_seen = Array.make t.hosts false in
  List.iter
    (fun at ->
      if at.host < 0 || at.host >= t.hosts then
        invalid_arg (Printf.sprintf "Topology.validate: attachment for host %d (of %d)" at.host t.hosts);
      if host_seen.(at.host) then
        invalid_arg (Printf.sprintf "Topology.validate: host %d attached twice" at.host);
      host_seen.(at.host) <- true;
      claim ~who:(Printf.sprintf "host %d" at.host) at.switch at.port)
    t.attachments;
  Array.iteri
    (fun h attached ->
      if not attached then invalid_arg (Printf.sprintf "Topology.validate: host %d unattached" h))
    host_seen

let max_port t sw =
  let fold_ep acc (s, p) = if s = sw then max acc p else acc in
  let acc =
    List.fold_left (fun acc l -> fold_ep (fold_ep acc l.a) l.b) (-1) t.links
  in
  List.fold_left (fun acc at -> fold_ep acc (at.switch, at.port)) acc t.attachments

(* Port counts for every switch in one pass over the link/attachment
   lists. [max_port] per switch is O(switches * links) across a whole
   topology — quadratic, and it shows at 1000+ switches. *)
let ports t =
  let n = Array.make t.switches 0 in
  let claim (sw, p) = if p + 1 > n.(sw) then n.(sw) <- p + 1 in
  List.iter
    (fun l ->
      claim l.a;
      claim l.b)
    t.links;
  List.iter (fun at -> claim (at.switch, at.port)) t.attachments;
  n

(* One-off networks: every link 1 us with the link layer's default
   failure detection, like an unparameterised link. *)

let make ~switches ~links ~hosts =
  {
    switches;
    hosts = List.length hosts;
    links =
      List.mapi
        (fun link_id (a, b) -> { link_id; a; b; delay = Sim_time.us 1; detection_delay = None })
        links;
    attachments =
      List.mapi
        (fun host (switch, port) -> { host; switch; port; host_delay = Sim_time.us 1 })
        hosts;
  }

let leaf_spine ~leaves ~spines ~hosts_per_leaf =
  if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Topology.leaf_spine: sizes must be positive";
  make ~switches:(leaves + spines)
    ~links:
      (List.concat_map
         (fun l -> List.init spines (fun s -> ((l, hosts_per_leaf + s), (leaves + s, l))))
         (List.init leaves Fun.id))
    ~hosts:
      (List.init (leaves * hosts_per_leaf) (fun h -> (h / hosts_per_leaf, h mod hosts_per_leaf)))

(* Skewed builders. Link [i] gets delay [base + i * skew] so no two
   links share a propagation delay: packets arriving at one switch over
   different paths then land on distinct timestamps, which pins the
   event order regardless of how a partitioned run interleaves shards. *)

let default_skew = Sim_time.ps 1

let ring ?(delay = Sim_time.us 1) ?(skew = default_skew) ~switches () =
  if switches < 2 then invalid_arg "Topology.ring: need at least 2 switches";
  let links =
    List.init switches (fun i ->
        {
          link_id = i;
          a = (i, 1);
          b = ((i + 1) mod switches, 2);
          delay = delay + (i * skew);
          detection_delay = None;
        })
  in
  let attachments =
    List.init switches (fun h -> { host = h; switch = h; port = 0; host_delay = Sim_time.us 1 })
  in
  { switches; hosts = switches; links; attachments }

let ring_route ~switches ~sw ~dst_host =
  if dst_host < 0 || dst_host >= switches then
    invalid_arg (Printf.sprintf "Topology.ring_route: host %d (of %d)" dst_host switches);
  if sw = dst_host then 0 else 1

(* Fat tree (Al-Fares et al.): k pods, (k/2)^2 cores. Ids: cores
   [0 .. (k/2)^2 - 1], then pod p occupies a block of k switches —
   aggregations first, edges second. *)

let ft_half k = k / 2
let ft_cores k = ft_half k * ft_half k
let ft_agg ~k ~pod i = ft_cores k + (pod * k) + i
let ft_edge ~k ~pod e = ft_cores k + (pod * k) + ft_half k + e

let ft_host_loc ~k h =
  let half = ft_half k in
  let per_pod = half * half in
  let pod = h / per_pod in
  let e = h mod per_pod / half in
  let m = h mod half in
  (pod, e, m)

let fat_tree ~k () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let half = ft_half k in
  let switches = ft_cores k + (k * k) in
  let hosts = k * k * k / 4 in
  let links = ref [] in
  let n_links = ref 0 in
  let add ~base a b =
    let id = !n_links in
    incr n_links;
    links :=
      { link_id = id; a; b; delay = base + (id * default_skew); detection_delay = None } :: !links
  in
  (* Aggregation i of pod p, up-port [half + j], reaches core [i*half + j]
     whose port p faces pod p. *)
  for p = 0 to k - 1 do
    for i = 0 to half - 1 do
      for j = 0 to half - 1 do
        add ~base:(Sim_time.us 2) ((i * half) + j, p) (ft_agg ~k ~pod:p i, half + j)
      done
    done
  done;
  (* Aggregation i, down-port e, to edge e's up-port [half + i]. *)
  for p = 0 to k - 1 do
    for i = 0 to half - 1 do
      for e = 0 to half - 1 do
        add ~base:(Sim_time.us 1) (ft_agg ~k ~pod:p i, e) (ft_edge ~k ~pod:p e, half + i)
      done
    done
  done;
  let attachments =
    List.init hosts (fun h ->
        let pod, e, m = ft_host_loc ~k h in
        { host = h; switch = ft_edge ~k ~pod e; port = m; host_delay = Sim_time.us 1 })
  in
  { switches; hosts; links = List.rev !links; attachments }

let fat_tree_route ~k ~sw ~dst_host =
  let half = ft_half k in
  let cores = ft_cores k in
  (* [ft_host_loc] spelled out: its tuple would be one allocation per
     routed packet. *)
  let per_pod = half * half in
  let dpod = dst_host / per_pod in
  let de = dst_host mod per_pod / half and dm = dst_host mod half in
  if dst_host < 0 || dpod >= k then
    invalid_arg (Printf.sprintf "Topology.fat_tree_route: host %d" dst_host);
  if sw < cores then
    (* Core switch: port p faces pod p. *)
    dpod
  else begin
    let off = (sw - cores) mod k in
    let pod = (sw - cores) / k in
    if off < half then
      (* Aggregation [off]: down-port e inside its pod, else up via the
         core column picked by the destination member index. *)
      if pod = dpod then de else half + dm
    else begin
      let e = off - half in
      if pod = dpod && e = de then dm else half + dm
    end
  end
