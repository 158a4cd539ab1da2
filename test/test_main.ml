let () =
  Alcotest.run "perseas"
    [
      ("sim", Test_sim.suite);
      ("mem", Test_mem.suite);
      ("sci", Test_sci.suite);
      ("disk", Test_disk.suite);
      ("cluster", Test_cluster.suite);
      ("netram", Test_netram.suite);
      ("pager", Test_pager.suite);
      ("layout", Test_layout.suite);
      ("perseas", Test_perseas.suite);
      ("replication", Test_replication.suite);
      ("churn", Test_churn.suite);
      ("crashpoint", Test_crashpoint.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("iset", Test_iset.suite);
      ("concurrency", Test_concurrency.suite);
      ("elision", Test_elision.suite);
      ("baselines", Test_baselines.suite);
      ("remote-wal", Test_remote_wal.suite);
      ("workloads", Test_workloads.suite);
      ("file-meta", Test_file_meta.suite);
      ("kvstore", Test_kvstore.suite);
      ("btree", Test_btree.suite);
      ("engines-generic", Test_engines_generic.suite);
      ("trace", Test_trace.suite);
      ("tail", Test_tail.suite);
      ("costmodel", Test_costmodel.suite);
      ("forensics", Test_forensics.suite);
      ("telemetry", Test_telemetry.suite);
      ("harness", Test_harness.suite);
      ("availability", Test_availability.suite);
      ("sharding", Test_sharding.suite);
      ("integration", Test_integration.suite);
    ]
