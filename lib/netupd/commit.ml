module Scheduler = Eventsim.Scheduler
module Sim_time = Eventsim.Sim_time

type action = Install | Flip | Unflip | Gc_old | Gc_new

let action_name = function
  | Install -> "install"
  | Flip -> "flip"
  | Unflip -> "unflip"
  | Gc_old -> "gc-old"
  | Gc_new -> "gc-new"

type phase = Installing | Flipping | Draining | Gc | Unflipping | Rb_draining | Rb_gc | Finished

let phase_name = function
  | Installing -> "installing"
  | Flipping -> "flipping"
  | Draining -> "draining"
  | Gc -> "gc"
  | Unflipping -> "unflipping"
  | Rb_draining -> "rb-draining"
  | Rb_gc -> "rb-gc"
  | Finished -> "finished"

(* Bounded retries then abort-and-rollback; the backward direction gets
   generous retries instead (abandoning a rollback op must degrade
   gracefully, never wedge). *)
let commit_direction = function
  | Installing | Flipping -> true
  | Gc | Unflipping | Rb_gc | Draining | Rb_draining | Finished -> false

type outcome = Committed | Rolled_back

type config = {
  ack_timeout : Sim_time.t;
  max_retries : int;
  rollback_max_retries : int;
  backoff_base : Sim_time.t;
  backoff_cap : Sim_time.t;
  drain : Sim_time.t;
}

let default_config () =
  {
    ack_timeout = Sim_time.us 12;
    max_retries = 3;
    rollback_max_retries = 12;
    backoff_base = Sim_time.us 8;
    backoff_cap = Sim_time.us 64;
    drain = Sim_time.us 20;
  }

type stats = {
  mutable attempts : int;
  mutable lost : int;
  mutable acks : int;
  mutable dup_acks : int;
  mutable late_acks : int;
  mutable retries : int;
  mutable abandoned : int;
  mutable canceled : int;
  mutable applied : int;
  mutable deduped : int;
  mutable gc_skipped : int;
}

let fresh_stats () =
  { attempts = 0; lost = 0; acks = 0; dup_acks = 0; late_acks = 0; retries = 0;
    abandoned = 0; canceled = 0; applied = 0; deduped = 0; gc_skipped = 0 }

type env = {
  sched : Scheduler.t;
  submit : switch:int -> (unit -> unit) -> unit;
  ack : switch:int -> (unit -> unit) -> unit;
  lost : switch:int -> now:Sim_time.t -> bool;
  apply : switch:int -> action -> unit;
  log : string -> unit;
  next_seq : unit -> int;
  stats : stats;
}

type op_state = In_flight | Acked | Abandoned

type op = {
  op_sw : int;
  op_action : action;
  op_seq : int;
  op_phase : int;
  mutable op_attempts : int;
  mutable op_state : op_state;
  mutable op_applied : bool; (* device-side dedup: apply at most once *)
  mutable op_timer : Scheduler.handle option;
}

type t = {
  env : env;
  cfg : config;
  version : int;
  targets : int array;
  on_done : outcome -> unit;
  mutable phase : phase;
  mutable phase_id : int;
  mutable phase_ops : op array;
  mutable outcome : outcome option;
  mutable gc_skip : bool;
}

let cancel_timer op =
  match op.op_timer with
  | None -> ()
  | Some h ->
      Scheduler.cancel h;
      op.op_timer <- None

let rec attempt t op =
  if t.outcome = None && op.op_phase = t.phase_id && op.op_state = In_flight then begin
    let st = t.env.stats in
    op.op_attempts <- op.op_attempts + 1;
    st.attempts <- st.attempts + 1;
    let now = Scheduler.now t.env.sched in
    (* The loss verdict is drawn at submit time so every controller
       replica, seeing the same submission order per switch, agrees. *)
    let is_lost = t.env.lost ~switch:op.op_sw ~now in
    if is_lost then st.lost <- st.lost + 1;
    t.env.log
      (Printf.sprintf "t=%d v=%d %s sw=%d seq=%d try=%d%s" now t.version
         (action_name op.op_action) op.op_sw op.op_seq op.op_attempts
         (if is_lost then " LOST" else ""));
    (* A lost submission never reaches the device — no CP queueing, no
       exec, no ack; the op resolves via its timeout. *)
    if not is_lost then
      t.env.submit ~switch:op.op_sw (fun () ->
          (* Device side. Retried ops can land twice — dedup by seq. *)
          if op.op_applied then st.deduped <- st.deduped + 1
          else begin
            op.op_applied <- true;
            st.applied <- st.applied + 1;
            t.env.apply ~switch:op.op_sw op.op_action
          end;
          t.env.ack ~switch:op.op_sw (fun () -> on_ack t op));
    op.op_timer <-
      Some
        (Scheduler.schedule ~cls:Scheduler.Netupd t.env.sched ~at:(now + t.cfg.ack_timeout)
           (fun () -> on_timeout t op))
  end

and on_ack t op =
  let st = t.env.stats in
  match op.op_state with
  | Acked -> st.dup_acks <- st.dup_acks + 1
  | Abandoned -> st.late_acks <- st.late_acks + 1
  | In_flight ->
      if t.outcome <> None || op.op_phase <> t.phase_id then begin
        (* Defensive: a phase teardown resolves its ops, so this should
           be unreachable — but never let a stale ack advance a phase. *)
        op.op_state <- Acked;
        st.late_acks <- st.late_acks + 1
      end
      else begin
        op.op_state <- Acked;
        st.acks <- st.acks + 1;
        cancel_timer op;
        maybe_advance t
      end

and on_timeout t op =
  op.op_timer <- None;
  if op.op_state = In_flight && t.outcome = None && op.op_phase = t.phase_id then begin
    let st = t.env.stats in
    let limit =
      if commit_direction t.phase then t.cfg.max_retries else t.cfg.rollback_max_retries
    in
    if op.op_attempts >= 1 + limit then give_up t op
    else begin
      st.retries <- st.retries + 1;
      (* Forward ops back off exponentially (congestion courtesy on the
         control channel); rollback ops retry at a steady base cadence
         — the backward path prioritizes liveness over politeness. *)
      let backoff =
        if commit_direction t.phase then
          let shift = min (op.op_attempts - 1) 16 in
          min t.cfg.backoff_cap (t.cfg.backoff_base * (1 lsl shift))
        else t.cfg.backoff_base
      in
      let now = Scheduler.now t.env.sched in
      Scheduler.post ~cls:Scheduler.Netupd t.env.sched ~at:(now + backoff) (fun () -> attempt t op)
    end
  end

and give_up t op =
  let st = t.env.stats in
  op.op_state <- Abandoned;
  st.abandoned <- st.abandoned + 1;
  t.env.log
    (Printf.sprintf "t=%d v=%d ABANDON %s sw=%d seq=%d" (Scheduler.now t.env.sched) t.version
       (action_name op.op_action) op.op_sw op.op_seq);
  match t.phase with
  | Installing -> begin_rollback t ~flipped:false
  | Flipping -> begin_rollback t ~flipped:true
  | Unflipping ->
      (* An ingress we could not unflip keeps stamping the new version;
         the new rules stay installed everywhere (the install phase
         fully acked before any flip), so skipping their GC keeps the
         network consistent. *)
      t.gc_skip <- true;
      maybe_advance t
  | Gc | Rb_gc ->
      (* Stale rules linger on one switch — wasteful, never unsafe. *)
      maybe_advance t
  | Draining | Rb_draining | Finished -> ()

and maybe_advance t =
  if t.outcome = None && Array.for_all (fun o -> o.op_state <> In_flight) t.phase_ops then
    match t.phase with
    | Installing -> start_phase t Flipping
    | Flipping -> start_drain t Draining ~next:Gc
    | Gc -> finish t Committed
    | Unflipping ->
        if t.gc_skip then begin
          t.env.stats.gc_skipped <- t.env.stats.gc_skipped + 1;
          finish t Rolled_back
        end
        else start_drain t Rb_draining ~next:Rb_gc
    | Rb_gc -> finish t Rolled_back
    | Draining | Rb_draining | Finished -> ()

and start_drain t phase ~next =
  t.phase <- phase;
  t.phase_id <- t.phase_id + 1;
  t.phase_ops <- [||];
  let id = t.phase_id in
  let now = Scheduler.now t.env.sched in
  t.env.log (Printf.sprintf "t=%d v=%d phase=%s" now t.version (phase_name phase));
  Scheduler.post ~cls:Scheduler.Netupd t.env.sched ~at:(now + t.cfg.drain) (fun () ->
      if t.outcome = None && t.phase_id = id then start_phase t next)

and start_phase t phase =
  t.phase <- phase;
  t.phase_id <- t.phase_id + 1;
  let action =
    match phase with
    | Installing -> Install
    | Flipping -> Flip
    | Unflipping -> Unflip
    | Gc -> Gc_old
    | Rb_gc -> Gc_new
    | Draining | Rb_draining | Finished -> assert false
  in
  t.env.log
    (Printf.sprintf "t=%d v=%d phase=%s" (Scheduler.now t.env.sched) t.version (phase_name phase));
  t.phase_ops <-
    Array.map
      (fun sw ->
        { op_sw = sw; op_action = action; op_seq = t.env.next_seq (); op_phase = t.phase_id;
          op_attempts = 0; op_state = In_flight; op_applied = false; op_timer = None })
      t.targets;
  Array.iter (fun op -> attempt t op) t.phase_ops

and begin_rollback t ~flipped =
  let st = t.env.stats in
  t.env.log
    (Printf.sprintf "t=%d v=%d ROLLBACK from=%s" (Scheduler.now t.env.sched) t.version
       (phase_name t.phase));
  Array.iter
    (fun o ->
      if o.op_state = In_flight then begin
        o.op_state <- Abandoned;
        st.canceled <- st.canceled + 1;
        cancel_timer o
      end)
    t.phase_ops;
  if flipped then start_phase t Unflipping else start_phase t Rb_gc

and finish t outcome =
  t.outcome <- Some outcome;
  t.phase <- Finished;
  t.phase_ops <- [||];
  t.env.log
    (Printf.sprintf "t=%d v=%d %s" (Scheduler.now t.env.sched) t.version
       (match outcome with Committed -> "COMMITTED" | Rolled_back -> "ROLLED_BACK"));
  t.on_done outcome

let start env cfg ~version ~targets ~on_done =
  if Array.length targets = 0 then invalid_arg "Commit.start: no targets";
  let t =
    { env; cfg; version; targets; on_done; phase = Finished; phase_id = 0; phase_ops = [||];
      outcome = None; gc_skip = false }
  in
  start_phase t Installing;
  t

let phase t = t.phase
