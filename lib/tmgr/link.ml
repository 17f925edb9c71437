module Scheduler = Eventsim.Scheduler

type endpoint = {
  deliver : Netcore.Packet.t -> unit;
  notify_status : up:bool -> unit;
}

type fate =
  | Deliver
  | Drop
  | Delay of Eventsim.Sim_time.t
  | Duplicate of int

(* In-flight ring for one direction of the wire.  Every packet on the
   fast path (no perturb extra delay) travels exactly [t.delay], so
   arrival order equals departure order and a FIFO ring plus ONE
   persistent arrival closure replaces a fresh closure per packet.
   Slots hold the packet itself and are reset to [Packet.nil] on
   arrival, so the ring boxes nothing and never pins dead packets. *)
type flight = {
  mutable pkts : Netcore.Packet.t array; (* capacity: power of two *)
  mutable epochs : int array; (* epoch at departure, same indices *)
  mutable head : int;
  mutable len : int;
  mutable cb : unit -> unit; (* posted once per in-flight packet *)
}

type t = {
  sched : Scheduler.t;
  delay : int;
  detection_delay : int;
  a : endpoint;
  b : endpoint;
  fly_ab : flight;
  fly_ba : flight;
  mutable up : bool;
  mutable epoch : int; (* bumped on every status change to void in-flight packets *)
  mutable delivered : int;
  mutable lost : int;
  mutable perturb : (from_a:bool -> Netcore.Packet.t -> fate) option;
  mutable perturb_drops : int;
  mutable perturb_dups : int;
  mutable perturb_delays : int;
  mutable stale_notifications : int;
}

let new_flight () =
  {
    pkts = Array.make 16 Netcore.Packet.nil;
    epochs = Array.make 16 0;
    head = 0;
    len = 0;
    cb = (fun () -> ());
  }

let fly_grow fl =
  let cap = Array.length fl.pkts in
  let cap' = cap * 2 in
  let pkts = Array.make cap' Netcore.Packet.nil in
  let epochs = Array.make cap' 0 in
  for k = 0 to fl.len - 1 do
    let src = (fl.head + k) land (cap - 1) in
    pkts.(k) <- fl.pkts.(src);
    epochs.(k) <- fl.epochs.(src)
  done;
  fl.pkts <- pkts;
  fl.epochs <- epochs;
  fl.head <- 0

let fly_push t fl ~epoch pkt =
  if fl.len = Array.length fl.pkts then fly_grow fl;
  let i = (fl.head + fl.len) land (Array.length fl.pkts - 1) in
  fl.pkts.(i) <- pkt;
  fl.epochs.(i) <- epoch;
  fl.len <- fl.len + 1;
  Scheduler.post_after ~cls:Scheduler.Link t.sched ~delay:t.delay fl.cb

let arrive t fl dst =
  let i = fl.head in
  let pkt = fl.pkts.(i) in
  let epoch = fl.epochs.(i) in
  fl.pkts.(i) <- Netcore.Packet.nil;
  fl.head <- (i + 1) land (Array.length fl.pkts - 1);
  fl.len <- fl.len - 1;
  if t.up && t.epoch = epoch then begin
    t.delivered <- t.delivered + 1;
    dst.deliver pkt
  end
  else t.lost <- t.lost + 1

let create ~sched ?(delay = Eventsim.Sim_time.us 1) ?(detection_delay = Eventsim.Sim_time.us 10)
    ~a ~b () =
  let t =
    {
      sched;
      delay;
      detection_delay;
      a;
      b;
      fly_ab = new_flight ();
      fly_ba = new_flight ();
      up = true;
      epoch = 0;
      delivered = 0;
      lost = 0;
      perturb = None;
      perturb_drops = 0;
      perturb_dups = 0;
      perturb_delays = 0;
      stale_notifications = 0;
    }
  in
  t.fly_ab.cb <- (fun () -> arrive t t.fly_ab t.b);
  t.fly_ba.cb <- (fun () -> arrive t t.fly_ba t.a);
  t

let set_perturb t f = t.perturb <- Some f
let clear_perturb t = t.perturb <- None

(* Perturb-delayed packets leave the FIFO ring (their transit time
   differs, so arrival order no longer matches departure order) and pay
   for a dedicated closure instead. *)
let deliver_after t dst ~epoch ~extra pkt =
  Scheduler.post_after ~cls:Scheduler.Link t.sched ~delay:(t.delay + extra) (fun () ->
      if t.up && t.epoch = epoch then begin
        t.delivered <- t.delivered + 1;
        dst.deliver pkt
      end
      else t.lost <- t.lost + 1)

let send t ~from_a pkt =
  if not t.up then t.lost <- t.lost + 1
  else begin
    let epoch = t.epoch in
    let dst = if from_a then t.b else t.a in
    let fl = if from_a then t.fly_ab else t.fly_ba in
    let fate = match t.perturb with None -> Deliver | Some f -> f ~from_a pkt in
    match fate with
    | Deliver -> fly_push t fl ~epoch pkt
    | Drop ->
        t.perturb_drops <- t.perturb_drops + 1;
        t.lost <- t.lost + 1
    | Delay extra ->
        let extra = max 0 extra in
        t.perturb_delays <- t.perturb_delays + 1;
        deliver_after t dst ~epoch ~extra pkt
    | Duplicate copies ->
        let copies = max 0 copies in
        t.perturb_dups <- t.perturb_dups + copies;
        fly_push t fl ~epoch pkt;
        for _ = 1 to copies do
          fly_push t fl ~epoch (Netcore.Packet.clone_for_forward pkt)
        done
  end

let change_status t up =
  if t.up <> up then begin
    t.up <- up;
    t.epoch <- t.epoch + 1;
    (* Tag the PHY notification with the epoch that produced it.  Under
       rapid flapping several notifications can be in flight at once;
       only the one matching the current epoch still describes reality —
       stale ones are dropped so an endpoint never observes a status
       that disagrees with [is_up] at delivery time. *)
    let epoch = t.epoch in
    Scheduler.post_after ~cls:Scheduler.Link t.sched ~delay:t.detection_delay (fun () ->
        if t.epoch = epoch then begin
          t.a.notify_status ~up;
          t.b.notify_status ~up
        end
        else t.stale_notifications <- t.stale_notifications + 1)
  end

let fail t = change_status t false
let restore t = change_status t true
let is_up t = t.up
let delivered t = t.delivered
let lost t = t.lost
let perturb_drops t = t.perturb_drops
let perturb_dups t = t.perturb_dups
let perturb_delays t = t.perturb_delays
let stale_notifications t = t.stale_notifications
