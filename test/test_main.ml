let () =
  Alcotest.run "hybridpta"
    [
      ("intset", Test_intset.tests);
      ("unify", Test_unify.tests);
      ("containers", Test_containers.tests);
      ("frontend", Test_frontend.tests);
      ("hierarchy", Test_hierarchy.tests);
      ("strategies", Test_strategies.tests);
      ("algebra", Test_algebra.tests);
      ("datalog", Test_datalog.tests);
      ("datalog-edge", Test_engine_edge.tests);
      ("smoke", Test_smoke.tests);
      ("solver", Test_solver_more.tests);
      ("clients", Test_clients.tests);
      ("checkers", Test_checkers.tests);
      ("differential", Test_differential.tests);
      ("taint", Test_taint.tests);
      ("soundness", Test_soundness.tests);
      ("precision", Test_precision.tests);
      ("exceptions", Test_exceptions.tests);
      ("interp", Test_interp.tests);
      ("workloads", Test_workloads.tests);
      ("report", Test_report.tests);
      ("obs", Test_obs.tests);
      ("metrics", Test_metrics.tests);
      ("trace", Test_trace.tests);
      ("stats", Test_stats.tests);
      ("provenance", Test_provenance.tests);
      ("roundtrip", Test_roundtrip.tests);
      ("field-modes", Test_field_modes.tests);
      ("regression-pin", Test_regression_pin.tests);
      ("fuzz", Test_fuzz.tests);
    ]
