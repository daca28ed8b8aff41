(** The paper's Table-1 metric bundle for one analysis run.

    Four precision metrics — average points-to set size, call-graph
    edges, poly virtual calls, may-fail casts — and the
    platform-independent performance metric (total context-sensitive
    var-points-to size), plus sizing counters. *)

type t = {
  (* precision *)
  avg_objs_per_var : float;
      (** mean context-insensitive points-to set size over variables with
          non-empty sets *)
  vars_with_objs : int;
  call_graph_edges : int;  (** distinct (invocation, target) pairs *)
  reachable_methods : int;
  poly_vcalls : int;
  total_vcalls : int;  (** virtual call sites in reachable methods *)
  may_fail_casts : int;
  total_casts : int;  (** casts in reachable methods *)
  throwing_methods : int;
      (** reachable methods some exception object may escape *)
  uncaught_exceptions : int;
      (** exception allocation sites that may escape an entry point *)
  taint_flows : int;
      (** distinct source-to-sink taint flows under the built-in spec
          ({!Pta_taint.Spec.default}); 0 when nothing matches its
          globs.  Spurious flows = this minus the workload's ground
          truth ({!Pta_workloads.Gen.taint_ground_truth}) *)
  (* performance / size *)
  sensitive_vpt : int;  (** total context-sensitive var-points-to facts *)
  n_ctxs : int;
  n_hctxs : int;
  n_hobjs : int;
  n_var_nodes : int;
  n_call_edges_cs : int;
  n_reachable_cs : int;
}

val compute : ?budget:Pta_obs.Budget.t -> Pta_solver.Solver.t -> t
(** [budget] (default: unlimited) bounds the taint pass behind
    [taint_flows], as {!Pta_taint.Taint.analyze}'s does; pass the
    solve's own token to keep counting against its deadline.
    @raise Pta_obs.Budget.Exhausted when [budget] runs out. *)

val pp : Format.formatter -> t -> unit
