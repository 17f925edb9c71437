type t = {
  keys : int;
  tbl : (int, int array) Hashtbl.t; (* version -> dense key->port map, -1 = no rule *)
  mutable installs : int;
  mutable uninstalls : int;
}

let create ~keys () =
  if keys <= 0 then invalid_arg "Table.create: keys must be positive";
  { keys; tbl = Hashtbl.create 4; installs = 0; uninstalls = 0 }

let install t ~version rules =
  let dense =
    match Hashtbl.find_opt t.tbl version with
    | Some d -> d (* reinstall overwrites in place (idempotent) *)
    | None ->
        let d = Array.make t.keys (-1) in
        Hashtbl.replace t.tbl version d;
        d
  in
  Array.fill dense 0 t.keys (-1);
  List.iter
    (fun { Policy.key; port } ->
      if key < 0 || key >= t.keys then invalid_arg "Table.install: key out of range";
      dense.(key) <- port)
    rules;
  t.installs <- t.installs + 1

let uninstall t ~version =
  if Hashtbl.mem t.tbl version then begin
    Hashtbl.remove t.tbl version;
    t.uninstalls <- t.uninstalls + 1
  end


let lookup t ~version ~key =
  if key < 0 || key >= t.keys then -1
  else match Hashtbl.find_opt t.tbl version with None -> -1 | Some d -> d.(key)

let versions t = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) t.tbl [])
let installs t = t.installs
let uninstalls t = t.uninstalls
