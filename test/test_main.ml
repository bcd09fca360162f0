let () =
  Alcotest.run "rakis-repro"
    [
      ("sim", Test_sim.suite);
      ("mem", Test_mem.suite);
      ("packet", Test_packet.suite);
      ("rings", Test_rings.suite);
      ("sgx", Test_sgx.suite);
      ("abi", Test_abi.suite);
      ("hostos", Test_hostos.suite);
      ("netstack", Test_netstack.suite);
      ("rakis", Test_rakis.suite);
      ("libos", Test_libos.suite);
      ("apps", Test_apps.suite);
      ("tm", Test_tm.suite);
      ("explore", Test_explore.suite);
      ("stm", Test_stm.suite);
      ("golden", Test_golden.suite);
      ("campaign", Test_campaign.suite);
      ("faults", Test_faults.suite);
      ("health", Test_health.suite);
      ("monitor", Test_monitor.suite);
      ("stress", Test_stress.suite);
      ("misc", Test_misc.suite);
      ("obs", Test_obs.suite);
      ("shard", Test_shard.suite);
      ("overload", Test_overload.suite);
      ("engine", Test_engine.suite);
    ]
