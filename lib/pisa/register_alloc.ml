type t = {
  clock : (unit -> int) option;
  mutable regs : Register_array.t list;
  mutable stats : (string * (unit -> (string * int) list)) list;
}

let create ?clock () = { clock; regs = []; stats = [] }

let array t ~name ~entries ~width =
  let reg =
    match t.clock with
    | Some clock -> Register_array.create ~clock ~name ~entries ~width ()
    | None -> Register_array.create ~name ~entries ~width ()
  in
  t.regs <- reg :: t.regs;
  reg

let registers t = List.rev t.regs
let total_bits t = List.fold_left (fun acc r -> acc + Register_array.bits r) 0 t.regs

let clock t = t.clock
let register_stats t ~name fn = t.stats <- (name, fn) :: t.stats
let stats_exporters t = List.rev t.stats
