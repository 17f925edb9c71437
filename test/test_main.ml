let () =
  Alcotest.run "evpp"
    [
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("eventsim", Test_eventsim.suite);
      ("determinism", Test_determinism.suite);
      ("netcore", Test_netcore.suite);
      ("pisa", Test_pisa.suite);
      ("efsm", Test_efsm.suite);
      ("cep", Test_cep.suite);
      ("devents", Test_devents.suite);
      ("consistency", Test_consistency.suite);
      ("tmgr", Test_tmgr.suite);
      ("faults", Test_faults.suite);
      ("resil", Test_resil.suite);
      ("evcore", Test_evcore.suite);
      ("apps", Test_apps.suite);
      ("workloads", Test_workloads.suite);
      ("resmodel", Test_resmodel.suite);
      ("experiments", Test_experiments.suite);
      ("p4dsl", Test_p4dsl.suite);
      ("parsim", Test_parsim.suite);
      ("work", Test_work.suite);
      ("netupd", Test_netupd.suite);
      ("golden", Test_golden.suite);
    ]
