module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver

type t = {
  avg_objs_per_var : float;
  vars_with_objs : int;
  call_graph_edges : int;
  reachable_methods : int;
  poly_vcalls : int;
  total_vcalls : int;
  may_fail_casts : int;
  total_casts : int;
  throwing_methods : int;
  uncaught_exceptions : int;
  taint_flows : int;
  sensitive_vpt : int;
  n_ctxs : int;
  n_hctxs : int;
  n_hobjs : int;
  n_var_nodes : int;
  n_call_edges_cs : int;
  n_reachable_cs : int;
}

let compute ?(budget = Pta_obs.Budget.unlimited ()) solver =
  let program = Solver.program solver in
  let vpt = Solver.vpt_counts solver in
  let vcall_sites = Devirt.analyze solver in
  let cast_sites = Casts.analyze solver in
  let escapes = Exceptions.escapes solver in
  let taint_flows =
    let spec = Pta_taint.Spec.compile program Pta_taint.Spec.default in
    if Pta_taint.Spec.n_sources spec = 0 then 0
    else Pta_taint.Taint.n_flows (Pta_taint.Taint.analyze ~budget solver spec)
  in
  {
    avg_objs_per_var =
      (if vpt.vars_with_objs = 0 then 0.
       else float_of_int vpt.ci_facts /. float_of_int vpt.vars_with_objs);
    vars_with_objs = vpt.vars_with_objs;
    call_graph_edges = Solver.n_call_edges_ci solver;
    reachable_methods = Ir.Meth_id.Set.cardinal (Solver.reachable_meths solver);
    poly_vcalls = Devirt.poly_count vcall_sites;
    total_vcalls = List.length vcall_sites;
    may_fail_casts = Casts.may_fail_count cast_sites;
    total_casts = List.length cast_sites;
    throwing_methods = List.length escapes;
    uncaught_exceptions =
      List.length (Exceptions.uncaught_at_entries solver escapes);
    taint_flows;
    sensitive_vpt = vpt.cs_facts;
    n_ctxs = Solver.n_ctxs solver;
    n_hctxs = Solver.n_hctxs solver;
    n_hobjs = Solver.n_hobjs solver;
    n_var_nodes = Solver.n_var_nodes solver;
    n_call_edges_cs = Solver.n_call_edges_cs solver;
    n_reachable_cs = Solver.n_reachable_cs solver;
  }

let pp ppf m =
  Format.fprintf ppf
    "@[<v>avg objs/var: %.2f (over %d vars)@,\
     call-graph edges: %d (methods: %d)@,\
     poly v-calls: %d (of %d)@,\
     may-fail casts: %d (of %d)@,\
     throwing methods: %d, uncaught exception sites: %d@,\
     taint flows: %d@,\
     sensitive var-points-to: %d@,\
     contexts: %d, heap contexts: %d, abstract objects: %d@,\
     var nodes: %d, cs call edges: %d, cs reachable: %d@]"
    m.avg_objs_per_var m.vars_with_objs m.call_graph_edges m.reachable_methods
    m.poly_vcalls m.total_vcalls m.may_fail_casts m.total_casts m.throwing_methods
    m.uncaught_exceptions m.taint_flows m.sensitive_vpt
    m.n_ctxs m.n_hctxs m.n_hobjs m.n_var_nodes m.n_call_edges_cs m.n_reachable_cs
