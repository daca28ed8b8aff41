(** The per-run statistics bundle the observability layer reports.

    Every field is read off the finished run: the engine's final sizes
    (nodes, contexts, abstract objects, the paper's
    platform-independent [sensitive_vpt_size] metric), its dynamic
    counters (edges, trigger firings, delta volume), the budget's
    iteration count and the engine's per-phase timings.  Every field
    except [wall_time_s] and [phases] is deterministic.

    Renders to a human-readable table ({!pp}) and to stable JSON
    ({!to_json}). *)

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
  phases : (string * float) list;  (** seconds per phase, stable order *)
  memory : Memstats.delta option;
      (** GC/memory profile for the run, when tracking was enabled *)
  metrics : Json.t option;
      (** metric-registry export ({!Pta_metrics.Registry.to_json} shape);
          held opaquely to keep [pta_obs] at the bottom of the stack *)
}

val to_json : t -> Json.t
(** [memory] and [metrics] are omitted when absent. *)

val pp : Format.formatter -> t -> unit
