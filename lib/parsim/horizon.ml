(* Large enough to never be a real timestamp, small enough that
   [no_event + delay] cannot overflow. *)
let no_event = max_int / 4

let adaptive_bound ~min_out_delays ~next_events ~until =
  let n = Array.length next_events in
  if Array.length min_out_delays <> n then
    invalid_arg "Horizon.adaptive_bound: array length mismatch";
  let bound = ref (until + 1) in
  for j = 0 to n - 1 do
    let d = min_out_delays.(j) in
    if d < no_event then begin
      let reach = next_events.(j) + d in
      if reach < !bound then bound := reach
    end
  done;
  !bound
