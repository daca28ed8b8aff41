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

let pp ppf t =
  let line fmt = Format.fprintf ppf fmt in
  line "@[<v>run stats (%s):@," t.analysis;
  line "  %-22s %12.3f@," "wall time (s)" t.wall_time_s;
  line "  %-22s %12d@," "iterations" t.iterations;
  line "  %-22s %12d@," "nodes created" t.n_nodes;
  line "  %-22s %12d@," "edges added" t.n_edges;
  line "  %-22s %12d@," "contexts" t.n_ctxs;
  line "  %-22s %12d@," "heap contexts" t.n_hctxs;
  line "  %-22s %12d@," "abstract objects" t.n_hobjs;
  line "  %-22s %12d@," "sensitive vpt size" t.sensitive_vpt_size;
  line "  %-22s %12d@," "trigger firings" t.triggers;
  line "  %-22s %12d@," "delta volume" t.delta_total;
  line "  %-22s %12d@," "max delta" t.max_delta;
  line "  %-22s %12d@," "SCCs collapsed" t.sccs_collapsed;
  line "  %-22s %12d@," "nodes unified" t.nodes_unified;
  line "  %-22s %12d@," "stale entries skipped" t.stale_skipped;
  List.iter
    (fun (name, s) -> line "  %-22s %12.3f@," (Printf.sprintf "[%s] (s)" name) s)
    t.phases;
  let m = t.memory in
  line "  %-22s %12.0f@," "minor alloc (words)" m.Memstats.minor_allocated_words;
  line "  %-22s %12.0f@," "major alloc (words)" m.Memstats.major_allocated_words;
  line "  %-22s %12d@," "peak heap (words)" m.Memstats.peak_heap_words;
  line "  %-22s %12d@," "major collections" m.Memstats.major_collections_delta;
  line "@]"
