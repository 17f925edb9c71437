(* Regenerate the canonical golden digests in test/golden/.

   Usage: dune exec test/gen_golden.exe -- [output-dir]

   The canon is defined as the SEQUENTIAL run — one scheduler, no
   channels — of each golden scenario (E23-E27, [Registry.goldens]) for
   each of its seeds. Every sharded run is tested against these files
   byte-for-byte, so regenerating them is only legitimate when the
   simulated behaviour intentionally changed. *)

module Conformance = Experiments.Conformance

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (g : Conformance.golden) ->
      List.iter
        (fun seed ->
          let digests = Conformance.golden_digests g ~shards:1 ~seed in
          let path = Filename.concat dir (Conformance.golden_file g seed) in
          let oc = open_out path in
          List.iter (fun (label, hex) -> Printf.fprintf oc "%s %s\n" label hex) digests;
          close_out oc;
          Printf.printf "wrote %s (%d digests)\n" path (List.length digests))
        g.seeds)
    Experiments.Registry.goldens
