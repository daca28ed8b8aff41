(** Tests for the solver's cycle-elimination counters, the histogram
    ladders behind the census and the bench snapshots, and the bench
    snapshot codec: round-tripping, version refusal, and the regression
    comparator's verdicts. *)

module Snapshot = Pta_report.Bench_snapshot
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Census = Pta_obs.Census
module Json = Pta_obs.Json

(* ------------------------------------------------------------------ *)
(* Cycle-elimination counters                                          *)
(* ------------------------------------------------------------------ *)

let solve_insens profile =
  let src = Pta_workloads.Workloads.source profile in
  let program = Pta_frontend.Frontend.program_of_string ~file:"<w>" src in
  let factory = Option.get (Pta_context.Strategies.by_name "insens") in
  Solver.solve program (factory program)

let counters solver =
  ( Solver.sccs_collapsed solver,
    Solver.nodes_unified solver,
    Solver.stale_skipped solver )

(* On a cycle-heavy workload the online cycle elimination must actually
   fire: SCCs collapsed, nodes unified, and stale queue entries
   skipped.  On tiny, which has no copy cycles, all three stay 0. *)
let cycle_counters_test () =
  let profile name = Option.get (Pta_workloads.Profile.by_name name) in
  let solver =
    solve_insens (Pta_workloads.Profile.scale 0.2 (profile "cyclic"))
  in
  let sccs, unified, stale = counters solver in
  Alcotest.(check bool) "sccs collapsed" true (sccs > 0);
  Alcotest.(check bool) "nodes unified" true (unified > 0);
  Alcotest.(check bool) "stale entries skipped" true (stale > 0);
  Alcotest.(check bool) "more nodes than classes" true (unified > sccs);
  Alcotest.(check (triple int int int))
    "tiny collapses nothing" (0, 0, 0)
    (counters (solve_insens (profile "tiny")));
  (* Unified members answer queries through their canonical node. *)
  let unified_pair = ref None in
  (try
     for i = 0 to Solver.n_nodes solver - 1 do
       let r = Solver.canonical_node solver i in
       if r <> i then begin
         unified_pair := Some (i, r);
         raise Exit
       end
     done
   with Exit -> ());
  match !unified_pair with
  | None -> Alcotest.fail "no unified node found despite nonzero counters"
  | Some (i, r) ->
    Alcotest.(check bool)
      "unified member shares its representative's points-to set" true
      (Intset.equal
         (Solver.node_points_to solver i)
         (Solver.node_points_to solver r))

(* ------------------------------------------------------------------ *)
(* Histogram ladders                                                   *)
(* ------------------------------------------------------------------ *)

(* le semantics: a time equal to a bucket's upper bound lands in that
   bucket, one past it lands in the next, times beyond the last bound
   land in the overflow bucket, and non-finite times are skipped. *)
let histogram_buckets_test () =
  let h =
    Snapshot.hist_of_times [ 0.001; 0.002; 0.0021; 0.004; 1e4; infinity; nan ]
  in
  let count i = List.nth h.Snapshot.counts i in
  Alcotest.(check int) "count" 5 (Snapshot.hist_count h);
  Alcotest.(check int) "le=0.001" 1 (count 0);
  Alcotest.(check int) "le=0.002" 1 (count 1);
  Alcotest.(check int) "le=0.004" 2 (count 2);
  Alcotest.(check int) "overflow" 1 (count 24);
  Alcotest.(check (float 1e-9)) "sum" 10000.0091 h.Snapshot.sum

(* The census's power-of-two ladder, with the same le semantics. *)
let pow2_buckets_test () =
  Alcotest.(check (list int)) "ladder" [ 1; 2; 4; 8 ] (Census.pow2_bounds 4);
  let h = Census.hist_of_values ~bounds:[ 1; 2; 4 ] [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "per-bucket counts" [ 1; 1; 2; 1 ]
    h.Census.h_counts

(* The solve-time ladder: 1 ms doubling, 24 buckets, ~2.3h ceiling, each
   bound exactly twice the last. *)
let exp_buckets_test () =
  let tb = (Snapshot.hist_of_times []).Snapshot.bounds in
  Alcotest.(check int) "time ladder length" 24 (List.length tb);
  Alcotest.(check (float 0.)) "time ladder start" 0.001 (List.hd tb);
  Alcotest.(check (float 0.)) "time ladder end" 8388.608 (List.nth tb 23);
  Alcotest.(check bool)
    "each bound doubles the last" true
    (List.for_all2
       (fun a b -> Float.equal b (a *. 2.))
       (List.filteri (fun i _ -> i < 23) tb)
       (List.tl tb))

(* The [time_hist] JSON of ledger records and bench snapshots, pinned
   byte for byte: committed ledger records and BENCH_*.json files carry
   it, so a new record must bucket and sum exactly as they did. *)
let histogram_to_hist_test () =
  let ladder =
    "[0.001,0.002,0.0040000000000000001,0.0080000000000000002,0.016,\
     0.032000000000000001,0.064000000000000001,0.128,0.25600000000000001,\
     0.51200000000000001,1.024,2.048,4.0960000000000001,\
     8.1920000000000002,16.384,32.768000000000001,65.536000000000001,\
     131.072,262.14400000000001,524.28800000000001,1048.576,2097.152,\
     4194.3040000000001,8388.6080000000002]"
  in
  List.iter
    (fun (times, counts, sum) ->
      Alcotest.(check string)
        "time_hist JSON"
        (Printf.sprintf {|{"bounds":%s,"counts":[%s],"sum":%s}|} ladder
           counts sum)
        (Json.to_string ~indent:false
           (Snapshot.hist_to_json (Snapshot.hist_of_times times))))
    [
      ( [ 0.0005; 0.001; 0.0015; 0.25; 3.7; 1e5; infinity; 0.002 ],
        "2,2,0,0,0,0,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,1",
        "100003.95499999999" );
      ( [ 0.1; 0.2; 0.30000000000000004 ],
        "0,0,0,0,0,0,0,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
        "0.60000000000000009" );
      ( [ 1.234; 1.2339; 1.2341 ],
        "0,0,0,0,0,0,0,0,0,0,0,3,0,0,0,0,0,0,0,0,0,0,0,0,0",
        "3.702" );
    ];
  (* codec round-trip, and the codec's shape rejections *)
  let hist =
    { Snapshot.bounds = [ 1.; 2.; 4. ]; counts = [ 1; 1; 2; 1 ]; sum = 15. }
  in
  (match Snapshot.hist_of_json (Snapshot.hist_to_json hist) with
  | Ok hist' -> Alcotest.(check bool) "round-trip" true (hist = hist')
  | Error e -> Alcotest.failf "hist round-trip: %s" e);
  let reject what h =
    match Snapshot.hist_of_json (Snapshot.hist_to_json h) with
    | Ok _ -> Alcotest.failf "%s: unexpectedly accepted" what
    | Error _ -> ()
  in
  reject "length mismatch" { hist with Snapshot.counts = [ 1; 2 ] };
  reject "negative count" { hist with Snapshot.counts = [ 1; -1; 2; 1 ] };
  reject "non-increasing bounds" { hist with Snapshot.bounds = [ 1.; 1.; 4. ] }

(* ------------------------------------------------------------------ *)
(* Bench snapshot codec                                                *)
(* ------------------------------------------------------------------ *)

let cell ?(timed_out = false) ?(time_s = 1.0) ?(iterations = 100) ?nodes
    ?peak_heap_words ?time_hist ?(heap_components = []) benchmark analysis =
  {
    Snapshot.benchmark; analysis; timed_out; time_s; iterations; nodes;
    peak_heap_words; time_hist; heap_components;
  }

let snap ?pointsto cells = { Snapshot.timeout_s = 60.; pointsto; cells }

let comps =
  [
    { Census.comp_name = "points-to-sets"; retained_words = 100_000;
      unshared_words = 320_000 };
    { Census.comp_name = "edge-lists"; retained_words = 50_000;
      unshared_words = 50_000 };
  ]

let roundtrip_test () =
  let hist =
    { Snapshot.bounds = [ 0.5; 1.0 ]; counts = [ 2; 1; 0 ]; sum = 1.9 }
  in
  let t =
    snap
      ~pointsto:(Json.Obj [ ("commit", Json.String "abc123") ])
      [
        cell ~nodes:1234 ~peak_heap_words:8192 ~time_hist:hist
          ~heap_components:comps
          "antlr" "2obj+H";
        cell ~timed_out:true ~time_s:60.2 ~iterations:999 "bloat" "2obj+H";
      ]
  in
  match Snapshot.of_string (Json.to_string (Snapshot.to_json t)) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check bool) "stamp survives" true (t'.Snapshot.pointsto <> None);
    (match t'.Snapshot.cells with
    | [ c1; c2 ] ->
      Alcotest.(check (option int)) "nodes" (Some 1234) c1.Snapshot.nodes;
      Alcotest.(check (option int)) "peak heap survives" (Some 8192)
        c1.Snapshot.peak_heap_words;
      Alcotest.(check bool) "hist survives" true
        (c1.Snapshot.time_hist = Some hist);
      Alcotest.(check bool) "components survive" true
        (c1.Snapshot.heap_components = comps);
      Alcotest.(check bool) "absent components read back empty" true
        (c2.Snapshot.heap_components = []);
      Alcotest.(check bool) "timeout cell" true c2.Snapshot.timed_out;
      Alcotest.(check bool) "timeout cell has no hist" true
        (c2.Snapshot.time_hist = None);
      Alcotest.(check int) "abort iterations" 999 c2.Snapshot.iterations
    | _ -> Alcotest.fail "wrong cell count")

(* Snapshots and ledger records share one schema version; a document
   of any other version, older or newer, is refused with an error naming
   it. *)
let refused_naming_version v src =
  match Snapshot.of_string src with
  | Ok _ -> Alcotest.failf "schema_version %d accepted" v
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "names version %d (%s)" v e)
      true
      (Helpers.contains_substring e (Printf.sprintf "schema_version %d" v))

(* A real v1 document (no nodes/memory/pointsto) is refused, not read
   with the later fields defaulted. *)
let v1_refused_test () =
  refused_naming_version 1
    {|{"schema_version": 1, "timeout_s": 60.0, "cells": [
        {"benchmark": "antlr", "analysis": "insens", "timed_out": false,
         "time_s": 0.5, "iterations": 42}]}|}

(* v2 (memory block, no hist) and v3 (hist, no heap_components)
   documents are refused too. *)
let v2_v3_refused_test () =
  refused_naming_version 2
    {|{"schema_version": 2, "timeout_s": 60.0, "cells": [
        {"benchmark": "antlr", "analysis": "insens", "timed_out": false,
         "time_s": 0.5, "iterations": 42, "nodes": 10,
         "memory": {"minor_allocated_words": 1.0, "promoted_words": 0.0,
                    "major_allocated_words": 0.0, "minor_collections": 0,
                    "major_collections": 0, "compactions": 0,
                    "heap_words": 100, "peak_heap_words": 200}}]}|};
  refused_naming_version 3
    {|{"schema_version": 3, "timeout_s": 60.0, "cells": [
        {"benchmark": "antlr", "analysis": "insens", "timed_out": false,
         "time_s": 0.5, "iterations": 42,
         "time_hist": {"bounds": [1.0], "counts": [1, 0], "sum": 0.5}}]}|}

let unsupported_schema_test () =
  List.iter
    (fun v ->
      refused_naming_version v
        (Printf.sprintf
           {|{"schema_version": %d, "timeout_s": 1, "cells": []}|} v))
    [ 4; 5; 99 ];
  match
    Snapshot.of_string
      (Printf.sprintf {|{"schema_version": %d, "timeout_s": 1, "cells": []}|}
         Snapshot.current_schema_version)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "current version refused: %s" e

(* ------------------------------------------------------------------ *)
(* Regression comparator                                               *)
(* ------------------------------------------------------------------ *)

let compare_cells base cur =
  Snapshot.compare ~baseline:(snap base) ~current:(snap cur) ()

let regression_verdicts_test () =
  (* +30% time with a 15% tolerance: flagged. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:1.3 "a" "x" ]
  in
  Alcotest.(check bool) "time regression" true (Snapshot.has_regression r);
  (* +10% is inside the default 15% tolerance. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:1.1 "a" "x" ]
  in
  Alcotest.(check bool) "within tolerance" false (Snapshot.has_regression r);
  (* Getting faster is never a regression. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:0.4 "a" "x" ]
  in
  Alcotest.(check bool) "speedup ok" false (Snapshot.has_regression r);
  (* Sub-floor baseline cells skip the relative-time check entirely. *)
  let r =
    compare_cells
      [ cell ~time_s:0.01 "a" "x" ]
      [ cell ~time_s:0.04 "a" "x" ]
  in
  Alcotest.(check bool) "noise floor" false (Snapshot.has_regression r)

let heap_verdict_test () =
  let base = cell ~peak_heap_words:8192 "a" "x" in
  let fat = cell ~peak_heap_words:16384 "a" "x" in
  let r = compare_cells [ base ] [ fat ] in
  Alcotest.(check bool) "heap regression" true (Snapshot.has_regression r);
  (* Against a baseline cell without a peak there is nothing to gate on. *)
  let r = compare_cells [ cell "a" "x" ] [ fat ] in
  Alcotest.(check bool) "peak-less baseline skips heap" false
    (Snapshot.has_regression r)

let timeout_verdicts_test () =
  let fine = cell "a" "x" and dead = cell ~timed_out:true "a" "x" in
  let r = compare_cells [ fine ] [ dead ] in
  Alcotest.(check bool) "new timeout fails" true (Snapshot.has_regression r);
  let r = compare_cells [ dead ] [ fine ] in
  Alcotest.(check bool) "fixed timeout passes" false (Snapshot.has_regression r);
  let r = compare_cells [ dead ] [ dead ] in
  Alcotest.(check bool) "both timed out" false (Snapshot.has_regression r)

let cell_presence_test () =
  let r = compare_cells [ cell "a" "x" ] [] in
  Alcotest.(check bool) "missing cell fails" true (Snapshot.has_regression r);
  let r = compare_cells [] [ cell "a" "x" ] in
  Alcotest.(check bool) "new cell passes" false (Snapshot.has_regression r);
  Alcotest.(check int) "new cell reported" 1 (List.length r.Snapshot.deltas)

(* Per-component gating: a census component growing past the tolerance
   must fail the comparison even when time and peak heap are flat. *)
let component_verdict_test () =
  let base = cell ~heap_components:comps "a" "x" in
  let grown =
    cell
      ~heap_components:
        (List.map
           (fun (c : Census.component) ->
             if c.Census.comp_name = "points-to-sets" then
               { c with Census.retained_words = 150_000 }
             else c)
           comps)
      "a" "x"
  in
  let r = compare_cells [ base ] [ grown ] in
  Alcotest.(check bool) "component regression" true (Snapshot.has_regression r);
  let verdicts = (List.hd r.Snapshot.deltas).Snapshot.verdicts in
  Alcotest.(check bool)
    "names the component" true
    (List.exists
       (function
         | Snapshot.Component_regression b ->
           b.Census.b_name = "points-to-sets"
         | _ -> false)
       verdicts);
  (* A loosened component tolerance lets the same growth through. *)
  let thresholds =
    { Snapshot.default_thresholds with Snapshot.heap_component_tol_pct = 100. }
  in
  let r =
    Snapshot.compare ~thresholds ~baseline:(snap [ base ])
      ~current:(snap [ grown ]) ()
  in
  Alcotest.(check bool) "loosened gate passes" false (Snapshot.has_regression r);
  (* Baselines without census blocks have nothing to gate on. *)
  let r = compare_cells [ cell "a" "x" ] [ grown ] in
  Alcotest.(check bool) "component-less baseline passes" false
    (Snapshot.has_regression r)

let custom_thresholds_test () =
  let thresholds =
    { Snapshot.default_thresholds with Snapshot.time_tol_pct = 50. }
  in
  let r =
    Snapshot.compare ~thresholds
      ~baseline:(snap [ cell ~time_s:1.0 "a" "x" ])
      ~current:(snap [ cell ~time_s:1.3 "a" "x" ])
      ()
  in
  Alcotest.(check bool) "loosened gate passes" false (Snapshot.has_regression r)

let markdown_report_test () =
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:2.0 "a" "x" ]
  in
  let md = Snapshot.to_markdown r in
  Alcotest.(check bool)
    "names the cell" true
    (Helpers.contains_substring md "| a | x |");
  Alcotest.(check bool)
    "counts regressions" true
    (Helpers.contains_substring md "1 regression(s)")

let tests =
  [
    Alcotest.test_case "cycle-elimination counters fire" `Quick
      cycle_counters_test;
    Alcotest.test_case "histogram buckets (le)" `Quick histogram_buckets_test;
    Alcotest.test_case "pow2 buckets" `Quick pow2_buckets_test;
    Alcotest.test_case "exp buckets" `Quick exp_buckets_test;
    Alcotest.test_case "histogram to snapshot hist" `Quick
      histogram_to_hist_test;
    Alcotest.test_case "snapshot round-trip" `Quick roundtrip_test;
    Alcotest.test_case "snapshot v1 refused" `Quick v1_refused_test;
    Alcotest.test_case "snapshot v2/v3 refused" `Quick v2_v3_refused_test;
    Alcotest.test_case "unsupported schema" `Quick unsupported_schema_test;
    Alcotest.test_case "time regression verdicts" `Quick
      regression_verdicts_test;
    Alcotest.test_case "heap regression verdict" `Quick heap_verdict_test;
    Alcotest.test_case "component regression verdict" `Quick
      component_verdict_test;
    Alcotest.test_case "timeout verdicts" `Quick timeout_verdicts_test;
    Alcotest.test_case "missing / new cells" `Quick cell_presence_test;
    Alcotest.test_case "custom thresholds" `Quick custom_thresholds_test;
    Alcotest.test_case "markdown report" `Quick markdown_report_test;
  ]
