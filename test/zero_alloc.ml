(* The check behind the "zero-alloc" tests: run [cycle] [iters] times
   to warm its free lists and rings, then [iters] more, and fail if the
   second batch allocated 64 or more minor words beyond
   [words_per_cycle] each. The 64 words cover the boxed floats
   [Gc.minor_words] itself returns. *)
let check ?(words_per_cycle = 0) name ~iters cycle =
  for _ = 1 to iters do
    cycle ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    cycle ()
  done;
  let delta = Gc.minor_words () -. w0 in
  let budget = 64. +. float_of_int (words_per_cycle * iters) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d cycles allocated %.0f minor words (budget below %.0f)" name iters
       delta budget)
    true (delta < budget)
