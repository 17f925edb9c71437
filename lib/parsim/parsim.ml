module Horizon = Horizon
module Scheduler = Eventsim.Scheduler
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Link = Tmgr.Link

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)

type partition = {
  shards : int;
  shard_of_switch : int array;
  shard_of_host : int array;
  shard_weight : int array;
}

(* Expected event rate of a switch: every wired port carries link
   events, and an attached host adds traffic generation, host-link and
   delivery events on top — empirically about a 4x multiplier over a
   plain switch-to-switch port. Edge switches therefore weigh several
   times a same-degree core switch, which is exactly the imbalance the
   contiguous equal-count split got wrong on fat trees. *)
let default_weights (topo : Topology.t) =
  let w = Array.make topo.switches 1 in
  List.iter
    (fun (l : Topology.link) ->
      w.(fst l.a) <- w.(fst l.a) + 1;
      w.(fst l.b) <- w.(fst l.b) + 1)
    topo.links;
  List.iter
    (fun (at : Topology.attachment) -> w.(at.switch) <- w.(at.switch) + 4)
    topo.attachments;
  w

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let partition (topo : Topology.t) ~shards =
  if shards < 1 || shards > topo.switches then
    invalid_arg
      (Printf.sprintf "Parsim.partition: %d shards for %d switches" shards topo.switches);
  let w = default_weights topo in
  let nsw = topo.switches in
  let prefix = Array.make (nsw + 1) 0 in
  for i = 0 to nsw - 1 do
    prefix.(i + 1) <- prefix.(i) + w.(i)
  done;
  let total = prefix.(nsw) in
  let shard_of_switch = Array.make nsw 0 in
  let shard_weight = Array.make shards 0 in
  let cut = ref 0 in
  for s = 0 to shards - 1 do
    let hi =
      if s = shards - 1 then nsw
      else begin
        (* Ideal cumulative weight after this shard, rounded to
           nearest. The boundary is clamped so every shard keeps at
           least one switch and leaves one per remaining shard — a
           skewed weight vector can therefore never produce an empty
           shard, it just degrades toward the equal-count split. *)
        let target = ((total * (s + 1)) + (shards / 2)) / shards in
        let lo = !cut + 1 and cap = nsw - (shards - 1 - s) in
        let e = ref lo in
        while !e < cap && prefix.(!e) < target do
          incr e
        done;
        if !e > lo && target - prefix.(!e - 1) < prefix.(!e) - target then decr e;
        !e
      end
    in
    for sw = !cut to hi - 1 do
      shard_of_switch.(sw) <- s
    done;
    shard_weight.(s) <- prefix.(hi) - prefix.(!cut);
    cut := hi
  done;
  let shard_of_host = Array.make topo.hosts 0 in
  List.iter
    (fun (at : Topology.attachment) -> shard_of_host.(at.host) <- shard_of_switch.(at.switch))
    topo.attachments;
  { shards; shard_of_switch; shard_of_host; shard_weight }

type cross_link = { link : Topology.link; shard_a : int; shard_b : int }

type plan = {
  part : partition;
  local_links : (int * Topology.link) list;
  cross : cross_link list;
  pair_delays : (int * int * int) list;
}

let plan (topo : Topology.t) ~shards =
  Topology.validate topo;
  let part = partition topo ~shards in
  let local, cross =
    List.partition_map
      (fun (l : Topology.link) ->
        let sa = part.shard_of_switch.(fst l.a) and sb = part.shard_of_switch.(fst l.b) in
        if sa = sb then Left (sa, l) else Right { link = l; shard_a = sa; shard_b = sb })
      topo.links
  in
  let pair_delays =
    let tbl = Hashtbl.create 16 in
    let note src dst d =
      match Hashtbl.find_opt tbl (src, dst) with
      | Some d0 when d0 <= d -> ()
      | _ -> Hashtbl.replace tbl (src, dst) d
    in
    List.iter
      (fun c ->
        note c.shard_a c.shard_b c.link.delay;
        note c.shard_b c.shard_a c.link.delay)
      cross;
    Hashtbl.fold (fun (s, d) dl acc -> (s, d, dl) :: acc) tbl [] |> List.sort compare
  in
  { part; local_links = local; cross; pair_delays }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type shard_ctx = {
  shard : int;
  sched : Scheduler.t;
  metrics : Obs.Metrics.t;
  switches : (int * Event_switch.t) list;
  hosts : (int * Host.t) list;
  links : (int * Link.t) list;
}

type config = {
  shards : int;
  until : Eventsim.Sim_time.t;
  record_trace : bool;
  record_digest : bool;
  switch_config : int -> Event_switch.config;
  program : int -> Evcore.Program.spec;
  on_shard : shard_ctx -> unit;
}

let config ?(shards = 1) ?(record_trace = false) ?(record_digest = false)
    ?(on_shard = fun _ -> ()) ~until ~switch_config ~program () =
  {
    shards;
    until;
    record_trace;
    record_digest;
    switch_config;
    program;
    on_shard;
  }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

(* A packet in flight between shards. [mkey] identifies the directed
   cross-link ([link_id * 2 + direction]); (mtime, mkey, mseq) is the
   deterministic release order at the barrier. *)
type message = { mtime : int; mkey : int; mseq : int; mpkt : Netcore.Packet.t }

(* Fills the free slots of a mailbox, so none pins a delivered packet. *)
let no_message = { mtime = 0; mkey = 0; mseq = 0; mpkt = Netcore.Packet.nil }

(* One window's messages from one shard to another: a growable array
   appended to by the sender during window [k] and emptied by the
   receiver after round [k + 1]'s barrier. Nothing writes it again
   until window [k + 2], which starts only after every shard — the
   receiver included, its release done — has arrived at round [k + 2].
   The barrier's atomic arrival counter therefore orders writer and
   reader both ways, and the mailbox needs no synchronization of its
   own. *)
type mailbox = { mutable msgs : message array; mutable len : int }

let append b m =
  if b.len = Array.length b.msgs then begin
    let grown = Array.make (max 16 (2 * b.len)) no_message in
    Array.blit b.msgs 0 grown 0 b.len;
    b.msgs <- grown
  end;
  b.msgs.(b.len) <- m;
  b.len <- b.len + 1

(* One packet arrival, for the conformance trace. Entities live on one
   shard each, so per-entity streams are recorded in execution order;
   the merge sorts on (time, kind, id, per-entity seq) — a total,
   shard-count-independent order as long as concurrent arrivals at
   distinct entities never need a cross-entity tie broken differently
   than the sequential scheduler would (the topology builders' per-link
   delay skew keeps them on distinct picoseconds). *)
type entry = { et : int; ekind : int; eid : int; eseq : int; edetail : string }

type shard_state = {
  mutable ctx : shard_ctx;
  mutable trace : entry list;  (* reversed *)
  mutable digest : int;  (* commutative arrival-multiset accumulator *)
  mutable ties : int;  (* same-instant arrivals at one entity observed *)
  mutable cross_sent : int;
  mutable cross_delivered : int;
  mutable window : int;  (* index of the window being executed; its parity picks the mailboxes *)
  sent_min : int array;  (* per dst shard, earliest arrival sent this window *)
}

(* A shard's doorbell. [parked] says its owner sleeps on [cond]; [rings]
   changes on every ring, so a ring that lands between the owner's last
   check and its wait is not lost. *)
type bell = {
  lock : Mutex.t;
  cond : Condition.t;
  parked : bool Atomic.t;
  rings : int Atomic.t;
}

type engine = {
  n : int;
  until : int;
  min_out : int array;  (* per shard, min delay of outgoing cross links *)
  states : shard_state array;
  boxes : mailbox array array;  (* [parity].(src * n + dst): one window's messages *)
  bells : bell array;
  arrived : int Atomic.t;  (* barrier arrivals so far, all rounds *)
  pub_next : int array array;  (* [parity].(shard): post-window next event *)
  pub_sent : int array array;  (* [parity].(src * n + dst): earliest arrival sent *)
  xdeliver : (Netcore.Packet.t -> unit) array;  (* by mkey; receiver-owned *)
  (* Per-shard round ledger, each slot written by its own shard. *)
  busy_s : float array;
  wait_s : float array;
  release_s : float array;
  parks : int array;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* the first exception a shard raised *)
}

(* Raised out of the barrier wait once a peer shard has failed: the
   waiter gives up its run, and [run] re-raises the peer's exception. *)
exception Abandoned

let wake b =
  Atomic.incr b.rings;
  Mutex.lock b.lock;
  Condition.signal b.cond;
  Mutex.unlock b.lock

let ring eng j =
  let b = eng.bells.(j) in
  if Atomic.get b.parked then wake b

(* One park attempt: announce it, then check the barrier count and the
   fleet's failure once more before sleeping — a last arrival that
   missed the announcement happened before that check, one that saw it
   rings, and so does a failing shard. *)
let park eng shard target =
  let bell = eng.bells.(shard) in
  let ticket = Atomic.get bell.rings in
  Atomic.set bell.parked true;
  if Atomic.get eng.arrived < target && Option.is_none (Atomic.get eng.failure) then begin
    eng.parks.(shard) <- eng.parks.(shard) + 1;
    Mutex.lock bell.lock;
    while Atomic.get bell.rings = ticket do
      Condition.wait bell.cond bell.lock
    done;
    Mutex.unlock bell.lock
  end;
  Atomic.set bell.parked false

(* The one wait of the engine: until [target] barrier arrivals, spin 200
   relaxes (a few microseconds), then park on the shard's own doorbell
   until the last arrival rings it. A failed peer ends the wait with
   [Abandoned]. *)
let await eng shard target =
  let spins = ref 0 in
  while Atomic.get eng.arrived < target do
    if Option.is_some (Atomic.get eng.failure) then raise Abandoned;
    if !spins < 200 then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else park eng shard target
  done

(* Records the first failure and rings every doorbell, so that no
   barrier wait outlives it. *)
let fail eng e bt =
  ignore (Atomic.compare_and_set eng.failure None (Some (e, bt)) : bool);
  Array.iter wake eng.bells

(* Publish this shard's half of round [k]'s data, then wait for every
   shard's. The last arrival rings the parked. *)
let arrive eng shard k =
  let st = eng.states.(shard) and n = eng.n in
  let p = k land 1 in
  let mine = Scheduler.next_time st.ctx.sched in
  eng.pub_next.(p).(shard) <- (if mine < 0 then Horizon.no_event else mine);
  let sent = eng.pub_sent.(p) in
  for d = 0 to n - 1 do
    sent.((shard * n) + d) <- st.sent_min.(d);
    st.sent_min.(d) <- Horizon.no_event
  done;
  let target = n * (k + 1) in
  if Atomic.fetch_and_add eng.arrived 1 = target - 1 then
    for j = 0 to n - 1 do
      if j <> shard then ring eng j
    done
  else await eng shard target

let compare_message a b =
  match compare a.mtime b.mtime with
  | 0 -> ( match compare a.mkey b.mkey with 0 -> compare a.mseq b.mseq | c -> c)
  | c -> c

(* After round [k]'s barrier, empty window [k - 1]'s mailboxes into this
   shard and post their messages in (time, link, seq) order across all
   senders. Window [k]'s sends go to the other parity's mailboxes, so
   the posted set (hence same-picosecond order and queue depth) never
   depends on how the shards interleave. *)
let release eng shard k =
  let st = eng.states.(shard) and n = eng.n in
  let due = ref [] in
  for src = 0 to n - 1 do
    let b = eng.boxes.((k + 1) land 1).((src * n) + shard) in
    for i = 0 to b.len - 1 do
      due := b.msgs.(i) :: !due;
      b.msgs.(i) <- no_message
    done;
    b.len <- 0
  done;
  List.iter
    (fun m ->
      if m.mtime <= eng.until then
        Scheduler.post ~cls:Scheduler.Xlink st.ctx.sched ~at:m.mtime (fun () ->
            st.cross_delivered <- st.cross_delivered + 1;
            eng.xdeliver.(m.mkey) m.mpkt))
    (List.sort compare_message !due)

(* The lockstep round loop of one shard. Returns the number of rounds
   (windows) it executed — identical on every shard, since every horizon
   and the stop verdict are computed from identically published data.

   Round [k] has one barrier:
   {ol
   {- Arrive: publish the earliest event left in our queue after window
      [k - 1] and, per destination shard, the earliest arrival time we
      sent it during that window (both into plain arrays of parity
      [k land 1], published by the arrival counter's increment), then
      await every shard's arrival. Double buffering is enough: nobody
      can publish round [k + 2] before everyone has arrived at round
      [k + 1], i.e. finished reading round [k].}
   {- Release window [k - 1]'s mailboxes in (time, link, seq) order.}
   {- Shard [j]'s next event is now [min (next_j, min_i sent_i->j)] —
      exactly what its queue holds after its own release — so every
      shard computes the same {!Horizon.adaptive_bound}, and the same
      stop verdict when even the earliest is past [until].}
   {- Execute window [k] up to the horizon, appending outgoing messages
      to the mailboxes of parity [k land 1].}}
   The clock reads between these steps feed the shard's ledger: wait
   (arrive), release, busy (horizon arithmetic and the window). *)
let run_shard eng shard =
  let st = eng.states.(shard) in
  let sched = st.ctx.sched in
  let n = eng.n in
  let nexts = Array.make n 0 in
  let k = ref 0 and cur = ref 0 and stop = ref false in
  let t = ref (Unix.gettimeofday ()) in
  while not !stop do
    arrive eng shard !k;
    let t_wait = Unix.gettimeofday () in
    eng.wait_s.(shard) <- eng.wait_s.(shard) +. (t_wait -. !t);
    release eng shard !k;
    let t_release = Unix.gettimeofday () in
    eng.release_s.(shard) <- eng.release_s.(shard) +. (t_release -. t_wait);
    let p = !k land 1 in
    let sent = eng.pub_sent.(p) in
    for j = 0 to n - 1 do
      let m = ref eng.pub_next.(p).(j) in
      for i = 0 to n - 1 do
        m := min !m sent.((i * n) + j)
      done;
      nexts.(j) <- !m
    done;
    let earliest = Array.fold_left min Horizon.no_event nexts in
    if earliest > eng.until then stop := true
    else begin
      let horizon =
        Horizon.adaptive_bound ~min_out_delays:eng.min_out ~next_events:nexts
          ~until:eng.until
      in
      (* Progress is structural: the bound sits past the earliest
         published event, so every round retires at least one event
         fleet-wide (or closes the run). *)
      assert (horizon > !cur);
      st.window <- !k;
      Scheduler.drain_until_horizon sched ~horizon;
      cur := horizon;
      incr k
    end;
    let t_busy = Unix.gettimeofday () in
    eng.busy_s.(shard) <- eng.busy_s.(shard) +. (t_busy -. t_release);
    t := t_busy
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Build + run                                                         *)

type result = {
  plan : plan;
  rounds_executed : int;
  events : int;
  cross_sent : int;
  cross_delivered : int;
  trace : string list;
  arrival_digest : string;
  tie_arrivals : int;
  registries : Obs.Metrics.t list;
  metrics_json : string;
  host_sent : int array;
  host_received : int array;
  host_received_bytes : int array;
  wall_s : float;
  shard_busy_s : float array;
  shard_wait_s : float array;
  shard_release_s : float array;
  shard_parks : int array;
  ctxs : shard_ctx array;
}

(* Order-independent arrival digest. The full trace's sort key
   (t, kind, id, seq) is a total order — [seq] is unique per entity —
   so the multiset of arrival records determines the merged trace and
   vice versa. Hashing each record into a commutative accumulator
   (sum mod 2^62) therefore pins exactly what the trace pins, without
   retaining millions of entries: per-shard sums merge in any order and
   the result is shard-count independent. Field nesting (not xor of
   independent hashes) keeps permuted field values from colliding. *)
let digest_arrival ~t ~kind ~id ~seq ~port ~len ~fkey =
  let mix = Netcore.Hashes.mix64 in
  mix (t + mix (kind + mix (id + mix (seq + mix (port + mix (len + mix fkey))))))

let digest_add st ~t ~kind ~id ~seq ~port ~len ~fkey =
  st.digest <- (st.digest + digest_arrival ~t ~kind ~id ~seq ~port ~len ~fkey) land max_int

let flow_detail pkt =
  match Netcore.Packet.flow pkt with
  | Some f -> Format.asprintf "len=%d %a" (Netcore.Packet.len pkt) Netcore.Flow.pp f
  | None -> Printf.sprintf "len=%d" (Netcore.Packet.len pkt)

let compare_entry a b =
  match compare a.et b.et with
  | 0 -> (
      match compare a.ekind b.ekind with
      | 0 -> ( match compare a.eid b.eid with 0 -> compare a.eseq b.eseq | c -> c)
      | c -> c)
  | c -> c

let render_entry e =
  Printf.sprintf "t=%d %s=%d seq=%d %s" e.et (if e.ekind = 0 then "sw" else "host") e.eid e.eseq
    e.edetail

let run (cfg : config) (topo : Topology.t) =
  (* The horizon clamps to [until + 1], which must stay a real
     timestamp below [Horizon.no_event]. *)
  if cfg.until < 0 || cfg.until >= Horizon.no_event then
    invalid_arg (Printf.sprintf "Parsim.run: until %d outside [0, Horizon.no_event)" cfg.until);
  (* [shards = 0] means auto: one shard per recommended domain, capped
     by the switch count. *)
  let n =
    if cfg.shards = 0 then min (recommended_domains ()) topo.switches else cfg.shards
  in
  let pl = plan topo ~shards:n in
  let scheds = Array.init n (fun _ -> Scheduler.create ()) in
  let sched_of_sw sw = scheds.(pl.part.shard_of_switch.(sw)) in
  let nports = Topology.ports topo in
  let switches =
    Array.init topo.switches (fun sw ->
        let cfg_sw = cfg.switch_config sw in
        let cfg_sw =
          {
            cfg_sw with
            Event_switch.num_ports = max cfg_sw.Event_switch.num_ports nports.(sw);
          }
        in
        Event_switch.create ~sched:(sched_of_sw sw) ~id:sw ~config:cfg_sw
          ~program:(cfg.program sw) ())
  in
  let hosts = Array.init topo.hosts (fun h -> Host.create ~id:h ()) in
  (* Mutable wiring state, then frozen into shard contexts. *)
  let shard_switches = Array.make n [] and shard_hosts = Array.make n [] in
  Array.iteri
    (fun sw esw ->
      let s = pl.part.shard_of_switch.(sw) in
      shard_switches.(s) <- (sw, esw) :: shard_switches.(s))
    switches;
  Array.iteri
    (fun h host ->
      let s = pl.part.shard_of_host.(h) in
      shard_hosts.(s) <- (h, host) :: shard_hosts.(s))
    hosts;
  let states =
    Array.init n (fun s ->
        {
          ctx =
            {
              shard = s;
              sched = scheds.(s);
              metrics = Obs.Metrics.create ();
              switches = List.rev shard_switches.(s);
              hosts = List.rev shard_hosts.(s);
              links = [];
            };
          trace = [];
          digest = 0;
          ties = 0;
          cross_sent = 0;
          cross_delivered = 0;
          window = 0;
          sent_min = Array.make n Horizon.no_event;
        })
  in
  let n_links = List.length topo.links in
  let min_out = Array.make n Horizon.no_event in
  List.iter
    (fun (src, _dst, d) -> if d < min_out.(src) then min_out.(src) <- d)
    pl.pair_delays;
  let eng =
    {
      n;
      until = cfg.until;
      min_out;
      states;
      boxes = Array.init 2 (fun _ -> Array.init (n * n) (fun _ -> { msgs = [||]; len = 0 }));
      bells =
        Array.init n (fun _ ->
            {
              lock = Mutex.create ();
              cond = Condition.create ();
              parked = Atomic.make false;
              rings = Atomic.make 0;
            });
      arrived = Atomic.make 0;
      pub_next = Array.init 2 (fun _ -> Array.make n Horizon.no_event);
      pub_sent = Array.init 2 (fun _ -> Array.make (n * n) Horizon.no_event);
      xdeliver = Array.make (2 * n_links) (fun _ -> assert false);
      busy_s = Array.make n 0.;
      wait_s = Array.make n 0.;
      release_s = Array.make n 0.;
      parks = Array.make n 0;
      failure = Atomic.make None;
    }
  in
  (* Trace hooks: per-entity sequence numbers are global arrays, but
     each entity is touched by exactly one shard's domain. *)
  let sw_seq = Array.make topo.switches 0 and host_seq = Array.make topo.hosts 0 in
  (* Same-instant arrival detector: the conformance order (time, kind,
     id, seq) is layout-independent only while no entity sees two
     arrivals on one picosecond — the precondition the topology
     builders' link skew and the workloads' jitter exist to uphold.
     When a workload violates it anyway, the runs may still agree, but
     the guarantee is gone; recording the count makes the hazard
     observable instead of a silent digest mismatch. *)
  let sw_last_t = Array.make topo.switches min_int
  and host_last_t = Array.make topo.hosts min_int in
  let record = cfg.record_trace || cfg.record_digest in
  let sw_rx shard sw port pkt =
    let st = states.(shard) in
    if record then begin
      let seq = sw_seq.(sw) in
      sw_seq.(sw) <- seq + 1;
      let t = Scheduler.now st.ctx.sched in
      if t = sw_last_t.(sw) then st.ties <- st.ties + 1;
      sw_last_t.(sw) <- t;
      if cfg.record_trace then
        st.trace <-
          {
            et = t;
            ekind = 0;
            eid = sw;
            eseq = seq;
            edetail = Printf.sprintf "port=%d %s" port (flow_detail pkt);
          }
          :: st.trace;
      if cfg.record_digest then
        digest_add st ~t ~kind:0 ~id:sw ~seq ~port ~len:(Netcore.Packet.len pkt)
          ~fkey:(Netcore.Packet.flow_key pkt)
    end;
    Event_switch.inject switches.(sw) ~port pkt
  in
  let host_rx shard h pkt =
    let st = states.(shard) in
    if record then begin
      let seq = host_seq.(h) in
      host_seq.(h) <- seq + 1;
      let t = Scheduler.now st.ctx.sched in
      if t = host_last_t.(h) then st.ties <- st.ties + 1;
      host_last_t.(h) <- t;
      if cfg.record_trace then
        st.trace <-
          { et = t; ekind = 1; eid = h; eseq = seq; edetail = flow_detail pkt }
          :: st.trace;
      if cfg.record_digest then
        digest_add st ~t ~kind:1 ~id:h ~seq ~port:(-1) ~len:(Netcore.Packet.len pkt)
          ~fkey:(Netcore.Packet.flow_key pkt)
    end;
    Host.deliver hosts.(h) pkt
  in
  let sw_endpoint shard sw port =
    {
      Link.deliver = (fun pkt -> sw_rx shard sw port pkt);
      notify_status = (fun ~up -> Event_switch.link_status switches.(sw) ~port ~up);
    }
  in
  (* Intra-shard links: real [Tmgr.Link]s — fault-injection capable. *)
  List.iter
    (fun (s, (l : Topology.link)) ->
      let sw_a, port_a = l.a and sw_b, port_b = l.b in
      let link =
        Link.create ~sched:scheds.(s) ~delay:l.delay ?detection_delay:l.detection_delay
          ~a:(sw_endpoint s sw_a port_a) ~b:(sw_endpoint s sw_b port_b) ()
      in
      Event_switch.set_port_tx switches.(sw_a) ~port:port_a (fun pkt ->
          Link.send link ~from_a:true pkt);
      Event_switch.set_port_tx switches.(sw_b) ~port:port_b (fun pkt ->
          Link.send link ~from_a:false pkt);
      states.(s).ctx <- { (states.(s).ctx) with links = (l.link_id, link) :: states.(s).ctx.links })
    pl.local_links;
  (* Host links are intra-shard by construction. *)
  List.iter
    (fun (at : Topology.attachment) ->
      let s = pl.part.shard_of_host.(at.host) in
      let host_ep =
        { Link.deliver = (fun pkt -> host_rx s at.host pkt); notify_status = (fun ~up:_ -> ()) }
      in
      let link =
        Link.create ~sched:scheds.(s) ~delay:at.host_delay ~a:host_ep
          ~b:(sw_endpoint s at.switch at.port) ()
      in
      Host.set_tx hosts.(at.host) (fun pkt -> Link.send link ~from_a:true pkt);
      Event_switch.set_port_tx switches.(at.switch) ~port:at.port (fun pkt ->
          Link.send link ~from_a:false pkt);
      states.(s).ctx <-
        { (states.(s).ctx) with links = (n_links + at.host, link) :: states.(s).ctx.links })
    topo.attachments;
  (* Cross-shard links: each direction is a sender closure computing
     the arrival timestamp (now + delay — exactly [Link.send]'s fast
     path) and appending it to the window's mailbox, and a
     receiver-side delivery endpoint posted at the next barrier. They
     cannot fail: no perturbation, no status change. *)
  let xseq = Array.make (2 * n_links) 0 in
  List.iter
    (fun c ->
      let l = c.link in
      let wire ~src ~dst ~mkey (sw_from, port_from) (sw_to, port_to) =
        eng.xdeliver.(mkey) <- (fun pkt -> sw_rx dst sw_to port_to pkt);
        Event_switch.set_port_tx switches.(sw_from) ~port:port_from (fun pkt ->
            let st = states.(src) in
            st.cross_sent <- st.cross_sent + 1;
            let seq = xseq.(mkey) in
            xseq.(mkey) <- seq + 1;
            let mtime = Scheduler.now st.ctx.sched + l.delay in
            if mtime < st.sent_min.(dst) then st.sent_min.(dst) <- mtime;
            append
              eng.boxes.(st.window land 1).((src * n) + dst)
              { mtime; mkey; mseq = seq; mpkt = pkt })
      in
      wire ~src:c.shard_a ~dst:c.shard_b ~mkey:(2 * l.link_id) l.a l.b;
      wire ~src:c.shard_b ~dst:c.shard_a ~mkey:((2 * l.link_id) + 1) l.b l.a)
    pl.cross;
  (* Freeze link lists into link-id order for ctx consumers. *)
  Array.iter
    (fun st ->
      st.ctx <-
        { (st.ctx) with links = List.sort (fun (a, _) (b, _) -> compare a b) st.ctx.links })
    states;
  Array.iter (fun st -> cfg.on_shard st.ctx) states;
  (* A series present in two shards' registries makes the final join
     raise. Registries only grow, so joining what [on_shard] left raises
     now, before the clock starts, whenever the final join would raise
     over those series — [Scheduler.set_metrics] registers its
     queue-depth gauge at once. *)
  if n > 1 then
    ignore
      (Obs.Metrics.join (Array.to_list (Array.map (fun st -> Obs.Metrics.render st.ctx.metrics) states))
        : string);
  (* A shard's whole part, on its own domain: its windows (the true
     sequential path at one shard: no windows, no mailboxes, no
     barriers), then its share of the result — every switch's series
     exported into its registry, sorted and rendered — so the join
     below only merges. *)
  let shard_part s =
    let rounds =
      if n = 1 then begin
        Scheduler.run ~until:cfg.until scheds.(0);
        1
      end
      else run_shard eng s
    in
    let ended = Unix.gettimeofday () in
    let ctx = states.(s).ctx in
    List.iter (fun (_, sw) -> Event_switch.export_metrics sw ctx.metrics) ctx.switches;
    (rounds, ended, Obs.Metrics.render ctx.metrics)
  in
  let guarded s =
    try Some (shard_part s) with
    | Abandoned -> None
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        fail eng e bt;
        None
  in
  let t0 = Unix.gettimeofday () in
  let others = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> guarded (i + 1))) in
  let first = guarded 0 in
  let parts = Array.append [| first |] (Array.map Domain.join others) in
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get eng.failure);
  let parts = Array.map Option.get parts in
  let rounds_executed, _, _ = parts.(0) in
  (* Every shard stops after the same window; the last to stop ends
     the run phase. *)
  let wall_s = Array.fold_left (fun acc (_, ended, _) -> Float.max acc ended) t0 parts -. t0 in
  if n = 1 then eng.busy_s.(0) <- wall_s;
  let registries = Array.to_list (Array.map (fun st -> st.ctx.metrics) states) in
  let trace =
    if not cfg.record_trace then []
    else
      Array.fold_left (fun acc (st : shard_state) -> List.rev_append st.trace acc) [] states
      |> List.sort compare_entry
      |> List.map render_entry
  in
  let arrival_digest =
    if not cfg.record_digest then ""
    else
      Printf.sprintf "%016x"
        (Array.fold_left (fun acc (st : shard_state) -> (acc + st.digest) land max_int) 0 states)
  in
  {
    plan = pl;
    rounds_executed;
    events = Array.fold_left (fun acc s -> acc + Scheduler.executed s) 0 scheds;
    cross_sent = Array.fold_left (fun acc (st : shard_state) -> acc + st.cross_sent) 0 states;
    cross_delivered = Array.fold_left (fun acc (st : shard_state) -> acc + st.cross_delivered) 0 states;
    trace;
    arrival_digest;
    tie_arrivals =
      Array.fold_left (fun acc (st : shard_state) -> acc + st.ties) 0 states;
    registries;
    metrics_json = Obs.Metrics.join (Array.to_list (Array.map (fun (_, _, r) -> r) parts));
    host_sent = Array.map Host.sent hosts;
    host_received = Array.map Host.received hosts;
    host_received_bytes = Array.map Host.received_bytes hosts;
    wall_s;
    shard_busy_s = eng.busy_s;
    shard_wait_s = eng.wait_s;
    shard_release_s = eng.release_s;
    shard_parks = eng.parks;
    ctxs = Array.map (fun st -> st.ctx) states;
  }
