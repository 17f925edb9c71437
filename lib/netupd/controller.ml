module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time
module Control_plane = Evcore.Control_plane

type t = {
  sched : Scheduler.t;
  agents : Agent.t option array;
  cps : Control_plane.t array;
  commit_cfg : Commit.config;
  lost : switch:int -> now:Sim_time.t -> bool;
  targets : int array;
  log : Buffer.t;
  next_seq : int ref;
  stats : Commit.stats;
  mutable next_version : int;
  mutable current : Policy.t;
  mutable in_flight : (Policy.t * int * Commit.t) option; (* policy, old version, txn *)
  mutable pending : Policy.t option;
  mutable started_at : Sim_time.t;
  mutable proposals : int;
  mutable committed : int;
  mutable rolled_back : int;
  mutable superseded : int;
}

let bootstrap_agent t p =
  Array.iteri
    (fun sw slot ->
      match slot with
      | None -> ()
      | Some a ->
          Table.install (Agent.table a) ~version:(Policy.version p) (Policy.rules p sw);
          Agent.set_ingress_version a (Policy.version p))
    t.agents

let create ~sched ~switches ~agents ~initial ?sup ?(commit = Commit.default_config ()) ?lost
    ~seed () =
  if Array.length agents <> switches then invalid_arg "Controller.create: agents/switches mismatch";
  if Policy.switches initial <> switches then invalid_arg "Controller.create: policy size mismatch";
  let cps =
    Array.init switches (fun sw ->
        (* Per-switch seed, not per-replica: every controller replica
           draws identical CP jitter for switch [sw], which is what
           makes replicated (sharded) runs byte-identical. *)
        let rng = Stats.Rng.create ~seed:(seed + (31 * (sw + 1))) in
        let sup = match sup with None -> None | Some f -> f sw in
        Control_plane.create ~sched ~latency:(Sim_time.us 4) ~op_rate_per_sec:1_000_000.
          ~jitter:(Sim_time.ns 500) ?sup ~rng ())
  in
  let t =
    {
      sched;
      agents;
      cps;
      commit_cfg = commit;
      lost = (match lost with Some f -> f | None -> fun ~switch:_ ~now:_ -> false);
      targets = Array.init switches Fun.id;
      log = Buffer.create 4096;
      next_seq = ref 0;
      stats = Commit.fresh_stats ();
      next_version = Policy.version initial + 1;
      current = initial;
      in_flight = None;
      pending = None;
      started_at = 0;
      proposals = 0;
      committed = 0;
      rolled_back = 0;
      superseded = 0;
    }
  in
  bootstrap_agent t initial;
  t

let logf t fmt = Printf.ksprintf (fun s -> Buffer.add_string t.log s; Buffer.add_char t.log '\n') fmt

let env t =
  {
    Commit.sched = t.sched;
    submit = (fun ~switch f -> Control_plane.submit t.cps.(switch) f);
    ack = (fun ~switch f -> Control_plane.notify t.cps.(switch) f);
    lost = t.lost;
    apply = (fun ~switch:_ _ -> assert false) (* replaced per update *);
    log = (fun s -> Buffer.add_string t.log s; Buffer.add_char t.log '\n');
    next_seq =
      (fun () ->
        let s = !(t.next_seq) in
        t.next_seq := s + 1;
        s);
    stats = t.stats;
  }

let rec start_update t p =
  let v_new = Policy.version p in
  let v_old = Policy.version t.current in
  t.started_at <- Scheduler.now t.sched;
  let apply ~switch action =
    match t.agents.(switch) with
    | None -> () (* this replica does not own the switch; a peer replica
                    performs the identical mutation at the same time *)
    | Some a -> (
        match action with
        | Commit.Install -> Table.install (Agent.table a) ~version:v_new (Policy.rules p switch)
        | Commit.Flip -> Agent.set_ingress_version a v_new
        | Commit.Unflip -> Agent.set_ingress_version a v_old
        | Commit.Gc_old -> Table.uninstall (Agent.table a) ~version:v_old
        | Commit.Gc_new -> Table.uninstall (Agent.table a) ~version:v_new)
  in
  let env = { (env t) with Commit.apply } in
  let txn =
    Commit.start env t.commit_cfg ~version:v_new ~targets:t.targets ~on_done:(fun outcome ->
        (match outcome with
        | Commit.Committed ->
            t.committed <- t.committed + 1;
            t.current <- p
        | Commit.Rolled_back -> t.rolled_back <- t.rolled_back + 1);
        t.in_flight <- None;
        match t.pending with
        | None -> ()
        | Some next ->
            t.pending <- None;
            start_update t next)
  in
  t.in_flight <- Some (p, v_old, txn)

let propose t p =
  if Policy.switches p <> Array.length t.agents then
    invalid_arg "Controller.propose: policy size mismatch";
  let v = t.next_version in
  t.next_version <- v + 1;
  let p = Policy.with_version p v in
  t.proposals <- t.proposals + 1;
  logf t "t=%d PROPOSE v=%d %s" (Scheduler.now t.sched) v (Policy.name p);
  match t.in_flight with
  | None -> start_update t p
  | Some _ ->
      (match t.pending with
      | Some old ->
          t.superseded <- t.superseded + 1;
          logf t "t=%d SUPERSEDE v=%d by v=%d" (Scheduler.now t.sched) (Policy.version old) v
      | None -> ());
      t.pending <- Some p

let version t = Policy.version t.current
let policy t = t.current
let in_flight_version t = match t.in_flight with None -> None | Some (p, _, _) -> Some (Policy.version p)
let stats t = t.stats
let proposals t = t.proposals
let committed t = t.committed
let rolled_back t = t.rolled_back
let superseded t = t.superseded
let cp t sw = t.cps.(sw)
let cps t = t.cps

let schedule_digest t =
  Digest.to_hex (Digest.string (Buffer.contents t.log ^ Printf.sprintf "|final=%d" (version t)))

let owned_agents t =
  Array.to_list t.agents |> List.filter_map Fun.id

let mixed t = List.fold_left (fun acc a -> acc + Agent.mixed a) 0 (owned_agents t)

let register_invariants ?(wedge_bound = Sim_time.ms 1) t inv =
  Resil.Invariants.add_zero inv ~name:"netupd.mixed" (fun () -> mixed t);
  Resil.Invariants.add inv ~name:"netupd.wedged" (fun () ->
      match t.in_flight with
      | None -> None
      | Some (p, _, txn) ->
          let age = Scheduler.now t.sched - t.started_at in
          if age > wedge_bound then
            Some
              (Printf.sprintf "update v%d stuck in %s for %d ps" (Policy.version p)
                 (Commit.phase_name (Commit.phase txn)) age)
          else None)

let export_metrics ?(labels = []) t reg =
  let open Obs.Metrics in
  let c name v = Counter.set (counter reg ~labels name) v in
  c "netupd.proposals" t.proposals;
  c "netupd.committed" t.committed;
  c "netupd.rolled_back" t.rolled_back;
  c "netupd.superseded" t.superseded;
  c "netupd.op.attempts" t.stats.Commit.attempts;
  c "netupd.op.lost" t.stats.Commit.lost;
  c "netupd.op.acks" t.stats.Commit.acks;
  c "netupd.op.dup_acks" t.stats.Commit.dup_acks;
  c "netupd.op.late_acks" t.stats.Commit.late_acks;
  c "netupd.op.retries" t.stats.Commit.retries;
  c "netupd.op.abandoned" t.stats.Commit.abandoned;
  c "netupd.op.canceled" t.stats.Commit.canceled;
  c "netupd.op.applied" t.stats.Commit.applied;
  c "netupd.op.deduped" t.stats.Commit.deduped;
  c "netupd.gc_skipped" t.stats.Commit.gc_skipped;
  Gauge.set (gauge reg ~labels "netupd.version") (version t);
  Gauge.set (gauge reg ~labels "netupd.in_flight") (match t.in_flight with None -> 0 | Some _ -> 1)
