type t = {
  streams : Stats.Rng.t array;
  drop_p : float;
  start : int;
  stop : int;
}

let create ~seed ~targets ~drop_p ?(start = 0) ?(stop = max_int) () =
  if drop_p < 0. || drop_p > 1. then invalid_arg "Op_loss.create: drop_p out of [0,1]";
  if targets <= 0 then invalid_arg "Op_loss.create: targets must be positive";
  {
    (* One stream per target so loss decisions for a target depend only
       on that target's own submission history — a sharded replica that
       only drives a subset of targets still sees the same verdicts. *)
    streams = Array.init targets (fun i -> Stats.Rng.create ~seed:(seed + (0x9e3779b9 * (i + 1))));
    drop_p;
    start;
    stop;
  }

let lost t ~target ~now =
  if target < 0 || target >= Array.length t.streams then invalid_arg "Op_loss.lost: bad target";
  (* Draw unconditionally so a window change never shifts the stream. *)
  let u = Stats.Rng.float t.streams.(target) in
  now >= t.start && now < t.stop && u < t.drop_p
