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
  sccs_collapsed : int;
  nodes_unified : int;
  stale_skipped : int;
  phases : (string * float) list;
  memory : Memstats.delta;
}

let to_json t =
  Json.Obj
    [
      ("analysis", Json.String t.analysis);
      ("wall_time_s", Json.Float t.wall_time_s);
      ("iterations", Json.Int t.iterations);
      ("n_nodes", Json.Int t.n_nodes);
      ("n_edges", Json.Int t.n_edges);
      ("n_ctxs", Json.Int t.n_ctxs);
      ("n_hctxs", Json.Int t.n_hctxs);
      ("n_hobjs", Json.Int t.n_hobjs);
      ("sensitive_vpt_size", Json.Int t.sensitive_vpt_size);
      ("triggers", Json.Int t.triggers);
      ("delta_total", Json.Int t.delta_total);
      ("max_delta", Json.Int t.max_delta);
      ("sccs_collapsed", Json.Int t.sccs_collapsed);
      ("nodes_unified", Json.Int t.nodes_unified);
      ("stale_skipped", Json.Int t.stale_skipped);
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) t.phases));
      ("memory", Memstats.to_json t.memory);
    ]
