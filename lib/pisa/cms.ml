type t = { rows : Register_array.t array; width : int }

let create ~alloc ?(name = "cms") ~width ~depth ~counter_bits () =
  if width <= 0 || depth <= 0 then invalid_arg "Cms.create";
  let rows =
    Array.init depth (fun i ->
        Register_alloc.array alloc
          ~name:(Printf.sprintf "%s_row%d" name i)
          ~entries:width ~width:counter_bits)
  in
  { rows; width }

let slot t row key = Netcore.Hashes.fold_range (Netcore.Hashes.salted ~salt:row key) t.width

let update t ~key ~delta =
  Array.iteri (fun row reg -> ignore (Register_array.add reg (slot t row key) delta)) t.rows

let query t ~key =
  Array.to_seq t.rows
  |> Seq.mapi (fun row reg -> Register_array.read reg (slot t row key))
  |> Seq.fold_left min max_int

let reset t = Array.iter Register_array.reset t.rows
let bits t = Array.fold_left (fun acc r -> acc + Register_array.bits r) 0 t.rows
