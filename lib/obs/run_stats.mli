(** The per-run statistics bundle the observability layer reports.

    Every field is read off the finished run: the engine's final sizes
    (nodes, contexts, abstract objects, the paper's
    platform-independent [sensitive_vpt_size] metric), its dynamic
    counters (edges, trigger firings, delta volume, cycle elimination),
    the budget's iteration count, the engine's per-phase timings and the
    run's GC profile.  Every field except [wall_time_s], [phases] and
    [memory] is deterministic.

    Renders to stable JSON ({!to_json}). *)

type t = {
  analysis : string;
  wall_time_s : float;
  iterations : int;
  n_nodes : int;
  n_edges : int;
  n_ctxs : int;
  n_hctxs : int;
  n_hobjs : int;
  sensitive_vpt_size : int;
  triggers : int;
  delta_total : int;
  max_delta : int;
  sccs_collapsed : int;  (** copy-edge SCCs collapsed online *)
  nodes_unified : int;  (** nodes absorbed into an SCC representative *)
  stale_skipped : int;
      (** worklist entries skipped because their node was already drained
          or unified away *)
  phases : (string * float) list;  (** seconds per phase, stable order *)
  memory : Memstats.delta;  (** GC/memory profile of the solve *)
}

val to_json : t -> Json.t
