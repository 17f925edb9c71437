type entry = {
  name : string;
  experiment_id : string;
  paper_artifact : string;
  run_and_print : metrics:Obs.Metrics.t option -> seed:int -> unit;
}

let all =
  [
    {
      name = E01_table1.name;
      experiment_id = "E1";
      paper_artifact = "Table 1";
      run_and_print = (fun ~metrics ~seed:_ -> E01_table1.print (E01_table1.run ?metrics ()));
    };
    {
      name = E02_table2.name;
      experiment_id = "E2";
      paper_artifact = "Table 2";
      run_and_print = (fun ~metrics:_ ~seed -> E02_table2.print (E02_table2.run ~seed ()));
    };
    {
      name = E02b_int.name;
      experiment_id = "E2b";
      paper_artifact = "Sec 3 INT report reduction";
      run_and_print = (fun ~metrics:_ ~seed -> E02b_int.print (E02b_int.run ~seed ()));
    };
    {
      name = E03_table3.name;
      experiment_id = "E3";
      paper_artifact = "Table 3";
      run_and_print = (fun ~metrics:_ ~seed:_ -> E03_table3.print (E03_table3.run ()));
    };
    {
      name = E04_linerate.name;
      experiment_id = "E4";
      paper_artifact = "Figure 4 / line rate";
      run_and_print = (fun ~metrics ~seed -> E04_linerate.print (E04_linerate.run ?metrics ~seed ()));
    };
    {
      name = E05_staleness.name;
      experiment_id = "E5";
      paper_artifact = "Figure 3 / staleness";
      run_and_print = (fun ~metrics ~seed -> E05_staleness.print (E05_staleness.run ?metrics ~seed ()));
    };
    {
      name = E06_microburst.name;
      experiment_id = "E6";
      paper_artifact = "Sec 2 microburst example";
      run_and_print = (fun ~metrics ~seed -> E06_microburst.print (E06_microburst.run ?metrics ~seed ()));
    };
    {
      name = E07_cms_reset.name;
      experiment_id = "E7";
      paper_artifact = "Sec 1/3 CMS reset";
      run_and_print = (fun ~metrics:_ ~seed -> E07_cms_reset.print (E07_cms_reset.run ~seed ()));
    };
    {
      name = E08_hula.name;
      experiment_id = "E8";
      paper_artifact = "Sec 3 congestion-aware forwarding";
      run_and_print = (fun ~metrics:_ ~seed -> E08_hula.print (E08_hula.run ~seed ()));
    };
    {
      name = E09_liveness.name;
      experiment_id = "E9";
      paper_artifact = "Sec 5 liveness monitoring";
      run_and_print = (fun ~metrics:_ ~seed -> E09_liveness.print (E09_liveness.run ~seed ()));
    };
    {
      name = E10_flowrate.name;
      experiment_id = "E10";
      paper_artifact = "Sec 5 time-windowed measurement";
      run_and_print = (fun ~metrics:_ ~seed -> E10_flowrate.print (E10_flowrate.run ~seed ()));
    };
    {
      name = E11_aqm.name;
      experiment_id = "E11";
      paper_artifact = "Sec 3/5 AQM fairness";
      run_and_print = (fun ~metrics:_ ~seed -> E11_aqm.print (E11_aqm.run ~seed ()));
    };
    {
      name = E12_frr.name;
      experiment_id = "E12";
      paper_artifact = "Sec 3/5 fast re-route";
      run_and_print = (fun ~metrics:_ ~seed -> E12_frr.print (E12_frr.run ~seed ()));
    };
    {
      name = E13_policer.name;
      experiment_id = "E13";
      paper_artifact = "Sec 3 policing";
      run_and_print = (fun ~metrics:_ ~seed -> E13_policer.print (E13_policer.run ~seed ()));
    };
    {
      name = E14_netcache.name;
      experiment_id = "E14";
      paper_artifact = "Sec 3 in-network computing";
      run_and_print = (fun ~metrics:_ ~seed -> E14_netcache.print (E14_netcache.run ~seed ()));
    };
    {
      name = E15_tofino.name;
      experiment_id = "E15";
      paper_artifact = "Sec 6 Tofino emulation";
      run_and_print = (fun ~metrics:_ ~seed -> E15_tofino.print (E15_tofino.run ~seed ()));
    };
    {
      name = E16_ablations.name;
      experiment_id = "E16";
      paper_artifact = "Sec 4 open questions (ablations)";
      run_and_print = (fun ~metrics:_ ~seed -> E16_ablations.print (E16_ablations.run ~seed ()));
    };
    {
      name = E17_migration.name;
      experiment_id = "E17";
      paper_artifact = "Table 2 state migration";
      run_and_print = (fun ~metrics:_ ~seed -> E17_migration.print (E17_migration.run ~seed ()));
    };
    {
      name = E18_p4_equivalence.name;
      experiment_id = "E18";
      paper_artifact = "programming-model fidelity (P4 source)";
      run_and_print = (fun ~metrics:_ ~seed -> E18_p4_equivalence.print (E18_p4_equivalence.run ~seed ()));
    };
    {
      name = E19_wfq.name;
      experiment_id = "E19";
      paper_artifact = "Sec 3 programmable scheduling (PIFO)";
      run_and_print = (fun ~metrics:_ ~seed -> E19_wfq.print (E19_wfq.run ~seed ()));
    };
    {
      name = E20_ecn.name;
      experiment_id = "E20";
      paper_artifact = "Sec 3 multi-bit ECN";
      run_and_print = (fun ~metrics:_ ~seed -> E20_ecn.print (E20_ecn.run ~seed ()));
    };
    {
      name = E21_chaos.name;
      experiment_id = "E21";
      paper_artifact = "Table 1 failure events under fault injection";
      run_and_print =
        (fun ~metrics ~seed -> E21_chaos.print (E21_chaos.run ?metrics ~seed ()));
    };
    {
      name = E22_resilience.name;
      experiment_id = "E22";
      paper_artifact = "Sec 4 robustness (supervision + degradation)";
      run_and_print =
        (fun ~metrics ~seed -> E22_resilience.print (E22_resilience.run ?metrics ~seed ()));
    };
    {
      name = E23_scale.name;
      experiment_id = "E23";
      paper_artifact = "Sec 4 distributed state (sharded execution)";
      run_and_print = (fun ~metrics ~seed -> E23_scale.print (E23_scale.run ?metrics ~seed ()));
    };
    {
      name = E24_efsm.name;
      experiment_id = "E24";
      paper_artifact = "Sec 3 stateful externs (per-flow EFSM, OPP contention)";
      run_and_print = (fun ~metrics ~seed -> E24_efsm.print (E24_efsm.run ?metrics ~seed ()));
    };
    {
      name = E25_cep.name;
      experiment_id = "E25";
      paper_artifact = "Sec 3 event-driven apps (complex-event patterns)";
      run_and_print = (fun ~metrics ~seed -> E25_cep.print (E25_cep.run ?metrics ~seed ()));
    };
    {
      name = E26_netupd.name;
      experiment_id = "E26";
      paper_artifact = "Sec 5 event-driven control (consistent updates)";
      run_and_print = (fun ~metrics ~seed -> E26_netupd.print (E26_netupd.run ?metrics ~seed ()));
    };
    {
      name = E27_dcscale.name;
      experiment_id = "E27";
      paper_artifact = "Sec 4 at datacenter scale (k=16, adaptive lookahead)";
      run_and_print = (fun ~metrics ~seed -> E27_dcscale.print (E27_dcscale.run ?metrics ~seed ()));
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names () = List.map (fun e -> e.name) all

let goldens =
  [ E23_scale.golden; E24_efsm.golden; E25_cep.golden; E26_netupd.golden; E27_dcscale.golden ]
