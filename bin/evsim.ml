(* evsim: run the paper-reproduction experiments from the command line. *)

let list_cmd () =
  Experiments.Registry.(
    List.iter
      (fun e ->
        Printf.printf "%-18s %-4s %s\n" e.name e.experiment_id e.paper_artifact)
      all)

let set_resil_policy name =
  match Resil.Policy.of_string name with
  | Some p ->
      Resil.Policy.default := p;
      None
  | None ->
      Some
        (Printf.sprintf "unknown resilience policy %S; try: %s" name
           (String.concat ", " Resil.Policy.names))

let set_shed_watermark = function
  | None -> None
  | Some w when w > 0 ->
      Resil.Shedder.default_watermark := Some w;
      None
  | Some w -> Some (Printf.sprintf "--shed-watermark must be positive, got %d" w)

let configure ~policy ~watermark =
  match set_resil_policy policy with
  | Some _ as e -> e
  | None -> set_shed_watermark watermark

(* Convert stray exceptions from command bodies — notably a fail-fast
   supervisor abort — into a clean usage-style failure instead of
   Cmdliner's internal-error backtrace. *)
let guarded f =
  match f () with
  | r -> r
  | exception Resil.Supervisor.Failed (name, exn) ->
      `Error
        ( false,
          Printf.sprintf
            "handler %S failed and --resil-policy is fail-fast (inner: %s); rerun \
             with --resil-policy quarantine to recover instead"
            name (Printexc.to_string exn) )
  | exception Sys_error msg -> `Error (false, msg)
  | exception Failure msg -> `Error (false, msg)
  | exception Invalid_argument msg -> `Error (false, msg)
  | exception exn -> `Error (false, Printexc.to_string exn)

(* --shards N narrows the sharded experiments' sweep (E23-E27) to
   {1, N}: the sequential reference plus the requested sharding, which
   is what the conformance check needs. --shards 0 asks Parsim to pick
   the shard count itself (recommended_domain_count, capped by the
   topology) — the sweep becomes {1, auto}. Other experiments are
   single-switch and ignore it. *)
let set_shards = function
  | None -> None
  | Some n when n >= 0 ->
      Experiments.Conformance.shard_counts := if n = 1 then [ 1 ] else [ 1; n ];
      None
  | Some n -> Some (Printf.sprintf "--shards must be non-negative, got %d" n)

let run_cmd policy watermark shards name seed metrics_out =
  match configure ~policy ~watermark with
  | Some err -> `Error (false, err)
  | None ->
  match set_shards shards with
  | Some err -> `Error (false, err)
  | None ->
  guarded @@ fun () ->
  let metrics =
    match metrics_out with None -> None | Some _ -> Some (Obs.Metrics.create ())
  in
  let finish () =
    (match (metrics_out, metrics) with
    | Some path, Some reg ->
        Experiments.Report.metrics_summary reg;
        Obs.Metrics.write_json ~path reg;
        Printf.printf "\nmetrics written to %s (%d series)\n" path
          (Obs.Metrics.cardinality reg)
    | _ -> ());
    `Ok ()
  in
  match name with
  | None ->
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          e.Experiments.Registry.run_and_print ~metrics ~seed)
        Experiments.Registry.all;
      finish ()
  | Some n -> (
      match Experiments.Registry.find n with
      | Some e ->
          e.Experiments.Registry.run_and_print ~metrics ~seed;
          finish ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; try: %s" n
                (String.concat ", " (Experiments.Registry.names ())) ))

let chaos_cmd policy watermark shards seed profile metrics_out =
  match configure ~policy ~watermark with
  | Some err -> `Error (false, err)
  | None ->
  guarded @@ fun () ->
  match shards with
  | Some n when n < 1 -> `Error (false, Printf.sprintf "--shards must be positive, got %d" n)
  | Some n when n > 1 ->
      (* Sharded chaos: the E23 fat tree under per-shard fault engines
         (intra-shard links only — cross-shard links cannot fail). *)
      let r = Experiments.E23_scale.chaos ~shards:n ~seed () in
      Experiments.E23_scale.print_chaos r;
      (match metrics_out with
      | Some path ->
          let reg = Obs.Metrics.create () in
          Obs.Metrics.Counter.set (Obs.Metrics.counter reg "e23.chaos.injected") r.injected;
          Obs.Metrics.write_json ~path reg
      | None -> ());
      if Experiments.E23_scale.chaos_passed r then `Ok ()
      else `Error (false, "sharded chaos run failed a degradation check")
  | _ -> (
  match Faults.Profile.of_string profile with
  | None ->
      `Error
        ( false,
          Printf.sprintf "unknown profile %S; try: %s" profile
            (String.concat ", " Faults.Profile.names) )
  | Some profile ->
      let metrics = Obs.Metrics.create () in
      let r = Experiments.E21_chaos.run ~metrics ~seed ~profile () in
      Experiments.E21_chaos.print r;
      let json = Obs.Metrics.to_json metrics in
      (match metrics_out with
      | Some path -> Obs.Metrics.write_json ~path metrics
      | None -> ());
      (* The digest makes two invocations byte-comparable without
         shipping the full snapshot to stdout. *)
      Printf.printf "\nmetrics series:                      %d\n"
        (Obs.Metrics.cardinality metrics);
      Printf.printf "metrics digest:                      %s\n"
        (Digest.to_hex (Digest.string json));
      let ok =
        r.Experiments.E21_chaos.balance = 0
        && r.Experiments.E21_chaos.final_consistent
        && r.Experiments.E21_chaos.received > 0
        && Experiments.E21_chaos.exercised r
      in
      if ok then `Ok () else `Error (false, "chaos run failed a degradation check"))

let p4_cmd file duration_us =
  if duration_us < 1 then
    `Error (false, Printf.sprintf "--duration-us must be positive, got %d" duration_us)
  else
  let source =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match P4dsl.Loader.load ~name:file source with
  | exception P4dsl.Parser.Parse_error (msg, pos) ->
      `Error (false, Printf.sprintf "%s:%d:%d: %s" file pos.P4dsl.Ast.line pos.P4dsl.Ast.col msg)
  | exception P4dsl.Lexer.Lex_error (msg, pos) ->
      `Error (false, Printf.sprintf "%s:%d:%d: %s" file pos.P4dsl.Ast.line pos.P4dsl.Ast.col msg)
  | exception P4dsl.Loader.Load_error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
  | spec ->
      let module Scheduler = Eventsim.Scheduler in
      let module Sim_time = Eventsim.Sim_time in
      let module Event_switch = Evcore.Event_switch in
      let sched = Scheduler.create () in
      let config = Event_switch.default_config Evcore.Arch.event_pisa_full in
      let sw = Event_switch.create ~sched ~config ~program:spec () in
      for p = 0 to 3 do
        Event_switch.set_port_tx sw ~port:p (fun _ -> ())
      done;
      Event_switch.on_notification sw (fun ~time msg ->
          Printf.printf "[%.3fus] notify <- %s\n" (Sim_time.to_us time) msg);
      (* A generic exercise workload: 3 CBR flows across the input
         ports. *)
      for i = 0 to 2 do
        ignore
          (Workloads.Traffic.cbr ~sched
             ~flow:
               (Netcore.Flow.make
                  ~src:(Netcore.Ipv4_addr.host ~subnet:1 i)
                  ~dst:(Netcore.Ipv4_addr.host ~subnet:2 i)
                  ~src_port:(1000 + i) ~dst_port:80 ())
             ~pkt_bytes:500 ~rate_gbps:1.
             ~stop:(Sim_time.us duration_us)
             ~send:(fun pkt -> Event_switch.inject sw ~port:i pkt)
             ())
      done;
      Scheduler.run ~until:(Sim_time.us duration_us + Sim_time.us 100) sched;
      Printf.printf "program:        %s\n" (Event_switch.program_name sw);
      List.iter
        (fun cls ->
          let n = Event_switch.handled sw cls in
          if n > 0 then Printf.printf "%-24s %d handled\n" (Devents.Event.cls_name cls) n)
        Devents.Event.all_classes;
      Printf.printf "state:          %d bits\n"
        (Pisa.Register_alloc.total_bits (Event_switch.alloc sw));
      `Ok ()

open Cmdliner

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let name_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"Experiment name.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record simulator metrics (scheduler, event switch, traffic manager) \
           during the run and write a JSON snapshot to $(docv).")

let resil_policy =
  Arg.(
    value
    & opt string (Resil.Policy.to_string !Resil.Policy.default)
    & info [ "resil-policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Handler supervision policy: %s. $(b,fail-fast) re-raises handler \
              faults (the unsupervised behaviour), $(b,drop-event) absorbs each \
              fault at the cost of its event, $(b,quarantine) unsubscribes the \
              tripped handler and re-enables it after exponential backoff."
             (String.concat ", " Resil.Policy.names)))

let shed_watermark =
  Arg.(
    value
    & opt (some int) None
    & info [ "shed-watermark" ] ~docv:"DEPTH"
        ~doc:
          "Enable graceful event shedding: once the event-merger backlog \
           reaches $(docv) entries, telemetry event classes are shed first, \
           control classes at 2x$(docv), packet classes at 4x$(docv). Off by \
           default.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Parallel shard count for the sharded experiments. On $(b,run), the \
           sharded experiments (E23-E27) compare the sequential run against \
           an $(docv)-shard run (default sweep: 1, 2, 4 ... ). $(docv) = 0 \
           lets the engine pick the shard count from the machine's \
           recommended domain count, capped by the topology size. On \
           $(b,chaos) with $(docv) > 1, runs the sharded fat-tree chaos \
           scenario with one fault engine per shard instead of E21.")

let run_term =
  Term.(
    ret
      (const run_cmd $ resil_policy $ shed_watermark $ shards_arg $ name_arg $ seed
     $ metrics_out))

let run_info =
  Cmd.info "run" ~doc:"Run one experiment (or all when no name is given)."

let list_term = Term.(const list_cmd $ const ())
let list_info = Cmd.info "list" ~doc:"List available experiments."

let chaos_profile =
  Arg.(
    value
    & opt string "flaky-links"
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:
          (Printf.sprintf "Fault profile: %s."
             (String.concat ", " Faults.Profile.names)))

let chaos_term =
  Term.(
    ret
      (const chaos_cmd $ resil_policy $ shed_watermark $ shards_arg $ seed $ chaos_profile
     $ metrics_out))

let chaos_info =
  Cmd.info "chaos"
    ~doc:
      "Run the fault-injection experiment (E21): microburst detection and fast \
       re-route under a seeded chaos profile. Exits non-zero if a degradation \
       check fails."

let p4_file =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"P4 source file.")

let p4_duration =
  Arg.(value & opt int 1000 & info [ "duration-us" ] ~doc:"Traffic duration in microseconds.")

let p4_term = Term.(ret (const p4_cmd $ p4_file $ p4_duration))

let p4_info =
  Cmd.info "p4" ~doc:"Load an event-driven P4 program and run it under generic traffic."

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info = Cmd.info "evsim" ~version:"1.0" ~doc:"Event-driven packet processing experiments." in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            Cmd.v run_info run_term;
            Cmd.v list_info list_term;
            Cmd.v chaos_info chaos_term;
            Cmd.v p4_info p4_term;
          ]))
