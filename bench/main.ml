(* Benchmark harness: regenerates the paper's evaluation.

   - table1:  Table 1 — 10 DaCapo-profile benchmarks x 15 analyses
              (the paper's 12 plus cut-shortcut and adaptive columns),
              4 precision metrics + time + context-sensitive
              var-points-to size, grouped as in the paper.
   - figure3: Figure 3 — per-benchmark ASCII scatter of running time (y)
              against may-fail casts (x) over all analyses.
   - summary: the headline aggregate ratios quoted in the paper's
              abstract/intro/Section 4.
   - micro:   Bechamel micro-benchmarks of the solver's building blocks.

   With no argument, runs table1 + figure3 + summary (sharing analysis
   runs).  PTA_BENCH_TIMEOUT (seconds, default 90) is the per-analysis
   cutoff; timeouts print as "-" like the paper's dashes.

   Regression-harness mode: `--baseline FILE --compare` re-runs the
   grid (optionally restricted with `--benchmarks a,b,c`), diffs it
   against the committed snapshot, prints a per-cell delta report, and
   exits non-zero if any cell breaches the noise thresholds
   (`--time-tol` / `--heap-tol`, percent).  `--delta-md FILE` writes
   the same report as a Markdown table.  PTA_BENCH_HANDICAP multiplies
   every recorded time — a test hook for exercising the gate. *)

module Ir = Pta_ir.Ir
module Metrics = Pta_clients.Metrics
module Profile = Pta_workloads.Profile
module Workloads = Pta_workloads.Workloads
module Strategies = Pta_context.Strategies
module Solver = Pta_solver.Solver
module Table = Pta_report.Table
module Scatter = Pta_report.Scatter
module Driver = Pta_driver.Driver
module Json = Pta_obs.Json
module Run_stats = Pta_obs.Run_stats
module Trace = Pta_obs.Trace
module Snapshot = Pta_report.Bench_snapshot
module Comparator = Pta_report.Comparator
module Census = Pta_obs.Census
module Registry = Pta_metrics.Registry

let timeout_s =
  match Sys.getenv_opt "PTA_BENCH_TIMEOUT" with
  | Some s -> float_of_string s
  | None -> 90.

(* Test hook: multiplies every recorded cell time so the regression gate
   can be exercised without actually slowing the solver down. *)
let handicap =
  match Sys.getenv_opt "PTA_BENCH_HANDICAP" with
  | Some s -> float_of_string s
  | None -> 1.

(* The benchmark subset under test; `--benchmarks` narrows it. *)
let selected_profiles = ref Profile.dacapo
let profiles () = !selected_profiles

(* Table-1 column order and the per-group partition used for marking the
   best time (the paper's bold entries; we use a trailing '*'). *)
let analysis_groups =
  [
    [ "1call"; "1call+H" ];
    [ "1obj"; "U-1obj"; "SA-1obj"; "SB-1obj" ];
    [ "2obj+H"; "U-2obj+H"; "S-2obj+H" ];
    [ "2type+H"; "U-2type+H"; "S-2type+H" ];
    [ "CS"; "CS-2obj+H"; "AD-2obj+H" ];
  ]

let analyses = List.concat analysis_groups

(* The analysis subset snapshotted by [current_snapshot] and gated by
   `--compare`; `--analyses` (or the `propbench` command) narrows it.
   Defaults to the Table-1 twelve. *)
let selected_analyses = ref analyses

type outcome =
  | Done of Metrics.t * float * Run_stats.t * Trace.stat list
      (* metrics, best (min-of-3) elapsed seconds, counters and trace profile of
         the first run *)
  | Timed_out of Pta_obs.Budget.abort

let runs : (string * string, outcome) Hashtbl.t = Hashtbl.create 256

(* Per-cell solve-time distributions: every timed run of a finished cell
   observed into one exponential-bucket registry histogram (the shared
   [Registry.time_buckets] ladder), serialised into the snapshot and from
   there into bench-history ledger records.  Kept out of [outcome] so the
   many pattern matches over it stay untouched. *)
let cell_hists : (string * string, Snapshot.hist) Hashtbl.t =
  Hashtbl.create 256

(* Per-cell reachable-heap census of the instrumented run's solved
   state, taken after the timed re-runs so its [Gc.full_major] cannot
   perturb them.  Snapshot cells carry it as the schema-v4
   [heap_components] block. *)
let cell_census : (string * string, Census.component list) Hashtbl.t =
  Hashtbl.create 256

let record_cell_hist key times =
  let reg = Registry.create () in
  let h =
    Registry.histogram reg ~buckets:Registry.time_buckets
      ~help:"Per-run wall time of one benchmark cell"
      "pta_bench_cell_time_seconds"
  in
  List.iter (fun t -> if Float.is_finite t then Registry.observe h t) times;
  Hashtbl.replace cell_hists key
    (Snapshot.hist_of_buckets ~sum:(Registry.histogram_sum h)
       (Registry.histogram_buckets h))

let run_one profile analysis_name =
  let key = (profile.Profile.name, analysis_name) in
  match Hashtbl.find_opt runs key with
  | Some o -> o
  | None ->
    let program = Workloads.program profile in
    (* Minimum of three timed runs.  The analysis is deterministic, so
       scheduler/VM interference can only ADD time — the minimum is the
       least-noisy estimate of the true cost, and it is what the
       regression gate compares against a committed baseline.  (Metrics
       and counters are collected once, on the first run — the
       recorder's non-time fields are identical across runs.) *)
    (* The first (instrumented) run also carries a small trace sink —
       aggregates are exact regardless of the tiny ring, and they feed
       the per-cell hot-spot summary in table1_stats.json.  Timed runs
       stay untraced. *)
    let run_once ~collect ?trace () =
      Driver.run
        ~config:(Solver.Config.make ~timeout_s ?trace ())
        ~collect_stats:collect program ~analysis:analysis_name
    in
    (* Compact before the instrumented run: the peak-heap figure must
       reflect this cell's live set, not heap grown (and never returned)
       by whichever cells happened to run earlier in the process —
       without this, per-cell memory numbers depend on grid order and
       drift 30%+ between a `table1` process and a `--compare` one.
       OCaml 5.0 and 5.1 compact without returning memory, so there a
       cell's peak still depends on the cells before it: a baseline only
       matches a gate run over the same cells in the same order. *)
    Gc.compact ();
    let trace = Trace.create ~limit:4096 () in
    let outcome =
      match run_once ~collect:true ~trace () with
      | Error (Driver.Timed_out { abort; _ }) -> Timed_out abort
      | Error e -> Driver.report_and_exit e
      | Ok r1 ->
        let time = function
          | Ok (r : Driver.run) -> r.Driver.wall_time_s
          | Error _ -> infinity
        in
        let t2 = time (run_once ~collect:false ()) in
        let t3 = time (run_once ~collect:false ()) in
        Hashtbl.replace cell_census key
          (Solver.census r1.Driver.solver).Census.components;
        let best =
          min r1.Driver.wall_time_s (min t2 t3) *. handicap
        in
        record_cell_hist key
          (List.map
             (fun t -> t *. handicap)
             [ r1.Driver.wall_time_s; t2; t3 ]);
        Done
          ( Metrics.compute r1.Driver.solver,
            best,
            Option.get r1.Driver.stats,
            Trace.profile trace )
    in
    Hashtbl.replace runs key outcome;
    (match outcome with
    | Done (_, s, _, _) ->
      Printf.eprintf "  [bench] %-10s %-10s %6.2fs\n%!" profile.Profile.name
        analysis_name s
    | Timed_out abort ->
      Printf.eprintf
        "  [bench] %-10s %-10s TIMEOUT (>%.0fs; %.1fs elapsed, %d iterations, \
         %d nodes)\n\
         %!"
        profile.Profile.name analysis_name timeout_s
        abort.Pta_obs.Budget.elapsed_s abort.Pta_obs.Budget.iterations
        abort.Pta_obs.Budget.nodes);
    outcome

(* A per-cell stats record for table1_stats.json: the Run_stats bundle of
   finished cells, the abort payload of timed-out ones. *)
let trace_summary_json stats =
  Json.List
    (List.filter_map
       (fun (s : Trace.stat) ->
         (* Per-edge-kind solver spans only; phase spans just restate the
            run's overall timings. *)
         if String.equal s.Trace.stat_cat "solver" then
           Some
             (Json.Obj
                [
                  ("name", Json.String s.Trace.stat_name);
                  ("events", Json.Int s.Trace.events);
                  ("delta", Json.Int s.Trace.delta);
                  ("seconds", Json.Float s.Trace.seconds);
                ])
         else None)
       stats)

let cell_stats_json profile_name analysis_name = function
  | Done (_, _, stats, tprofile) -> (
    match Run_stats.to_json stats with
    | Json.Obj fields ->
      Json.Obj
        (("benchmark", Json.String profile_name)
        :: (fields @ [ ("trace", trace_summary_json tprofile) ]))
    | _ -> assert false)
  | Timed_out abort ->
    Json.Obj
      [
        ("benchmark", Json.String profile_name);
        ("analysis", Json.String analysis_name);
        ("timed_out", Json.Bool true);
        ("elapsed_s", Json.Float abort.Pta_obs.Budget.elapsed_s);
        ("iterations", Json.Int abort.Pta_obs.Budget.iterations);
        ("nodes", Json.Int abort.Pta_obs.Budget.nodes);
      ]

(* The schema-v2 snapshot of the current grid: per-cell best (min-of-3) time,
   iterations, supergraph nodes and the instrumented run's GC profile —
   timeout cells carry the solver's abort payload (elapsed, iterations,
   nodes at abort) instead of just a dash. *)
let current_snapshot () =
  let cells =
    List.concat_map
      (fun profile ->
        List.map
          (fun a ->
            let key = (profile.Profile.name, a) in
            match run_one profile a with
            | Done (_, s, stats, _) ->
              {
                Snapshot.benchmark = profile.Profile.name;
                analysis = a;
                timed_out = false;
                time_s = s;
                iterations = stats.Run_stats.iterations;
                nodes = Some stats.Run_stats.n_nodes;
                memory = stats.Run_stats.memory;
                time_hist = Hashtbl.find_opt cell_hists key;
                heap_components =
                  Option.value ~default:[] (Hashtbl.find_opt cell_census key);
              }
            | Timed_out abort ->
              {
                Snapshot.benchmark = profile.Profile.name;
                analysis = a;
                timed_out = true;
                time_s = abort.Pta_obs.Budget.elapsed_s;
                iterations = abort.Pta_obs.Budget.iterations;
                nodes = Some abort.Pta_obs.Budget.nodes;
                memory = None;
                time_hist = None;
                heap_components = [];
              })
          !selected_analyses)
      (profiles ())
  in
  {
    Snapshot.schema_version = Snapshot.current_schema_version;
    timeout_s;
    pointsto = Some (Pta_version.Version.to_json ());
    cells;
  }

let write_snapshot_file path snapshot =
  let oc = open_out path in
  output_string oc (Json.to_string (Snapshot.to_json snapshot));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let fmt_float x = Printf.sprintf "%.2f" x
let fmt_int = string_of_int
let fmt_k n = Printf.sprintf "%.1fK" (float_of_int n /. 1000.)

let table1_block profile =
  let outcomes = List.map (fun a -> (a, run_one profile a)) analyses in
  let program = Workloads.program profile in
  let some_metrics =
    List.find_map (function _, Done (m, _, _, _) -> Some m | _ -> None) outcomes
  in
  let headline =
    match some_metrics with
    | Some m ->
      Printf.sprintf
        "%s  (%d methods, ~%d reachable; v-calls of ~%d, casts of ~%d)"
        profile.Profile.name
        (Ir.Program.n_meths program)
        m.Metrics.reachable_methods m.Metrics.total_vcalls m.Metrics.total_casts
    | None -> profile.Profile.name
  in
  let t = Table.create ~headers:("metric" :: analyses) in
  let metric_row label f =
    Table.add_row t
      (label
      :: List.map
           (fun (_, o) -> match o with Done (m, _, _, _) -> f m | Timed_out _ -> "-")
           outcomes)
  in
  metric_row "avg objs per var" (fun m -> fmt_float m.Metrics.avg_objs_per_var);
  metric_row "call-graph edges" (fun m -> fmt_int m.Metrics.call_graph_edges);
  metric_row "poly v-calls" (fun m -> fmt_int m.Metrics.poly_vcalls);
  metric_row "may-fail casts" (fun m -> fmt_int m.Metrics.may_fail_casts);
  (* The taint client's precision column: flows beyond the generator's
     ground truth are spurious — hybrids keep the tainted and clean
     pass-through call sites apart where their unhybrid counterparts
     conflate them. *)
  let taint_truth = Pta_workloads.Gen.taint_ground_truth profile in
  metric_row "spurious taint flows" (fun m ->
      fmt_int (m.Metrics.taint_flows - taint_truth));
  Table.add_separator t;
  (* Best (lowest) time within each analysis group is starred, like the
     paper's bold entries. *)
  let best_in_group =
    List.concat_map
      (fun group ->
        let times =
          List.filter_map
            (fun a ->
              match run_one profile a with
              | Done (_, s, _, _) -> Some (a, s)
              | Timed_out _ -> None)
            group
        in
        match times with
        | [] -> []
        | (a0, s0) :: rest ->
          [
            fst
              (List.fold_left
                 (fun (ba, bs) (a, s) -> if s < bs then (a, s) else (ba, bs))
                 (a0, s0) rest);
          ])
      analysis_groups
  in
  Table.add_row t
    ("elapsed time (s)"
    :: List.map
         (fun (a, o) ->
           match o with
           | Done (_, s, _, _) ->
             Printf.sprintf "%.2f%s" s
               (if List.mem a best_in_group then "*" else "")
           | Timed_out _ -> "-")
         outcomes);
  metric_row "sensitive var-points-to" (fun m -> fmt_k m.Metrics.sensitive_vpt);
  (headline, Table.render t)

let cmd_table1 () =
  print_endline
    "=== Table 1: precision and performance, all benchmarks x all analyses ===";
  Printf.printf
    "(per-analysis timeout: %.0fs; '-' = timeout, '*' = best time in its \
     analysis group)\n\n"
    timeout_s;
  List.iter
    (fun profile ->
      let headline, rendered = table1_block profile in
      print_endline headline;
      print_endline rendered)
    (profiles ());
  (* Also emit machine-readable CSV next to the textual table. *)
  let rows = ref [] in
  List.iter
    (fun profile ->
      List.iter
        (fun a ->
          match run_one profile a with
          | Done (m, s, _, _) ->
            rows :=
              [
                profile.Profile.name;
                a;
                fmt_float m.Metrics.avg_objs_per_var;
                fmt_int m.Metrics.call_graph_edges;
                fmt_int m.Metrics.poly_vcalls;
                fmt_int m.Metrics.may_fail_casts;
                fmt_int m.Metrics.total_casts;
                fmt_int
                  (m.Metrics.taint_flows
                  - Pta_workloads.Gen.taint_ground_truth profile);
                Printf.sprintf "%.3f" s;
                fmt_int m.Metrics.sensitive_vpt;
                fmt_int m.Metrics.n_ctxs;
              ]
              :: !rows
          | Timed_out _ ->
            rows :=
              [
                profile.Profile.name; a; "-"; "-"; "-"; "-"; "-"; "-"; "-";
                "-"; "-";
              ]
              :: !rows)
        analyses)
    (profiles ());
  let csv =
    Table.csv
      ~headers:
        [
          "benchmark";
          "analysis";
          "avg_objs_per_var";
          "call_graph_edges";
          "poly_vcalls";
          "may_fail_casts";
          "total_casts";
          "spurious_taint_flows";
          "time_s";
          "sensitive_vpt";
          "contexts";
        ]
      (List.rev !rows)
  in
  let oc = open_out "table1.csv" in
  output_string oc csv;
  close_out oc;
  print_endline "[table1.csv written]";
  (* Per-cell counter bundles (or abort payloads) for the same grid. *)
  let stats =
    List.concat_map
      (fun profile ->
        List.map
          (fun a ->
            cell_stats_json profile.Profile.name a (run_one profile a))
          analyses)
      (profiles ())
  in
  let oc = open_out "table1_stats.json" in
  output_string oc (Json.to_string (Json.List stats));
  output_char oc '\n';
  close_out oc;
  print_endline "[table1_stats.json written]";
  (* The committed perf snapshot: just enough per cell to diff run-time,
     iteration and memory regressions across revisions (schema v2,
     documented in EXPERIMENTS.md). *)
  write_snapshot_file "BENCH_table1.json" (current_snapshot ());
  print_endline "[BENCH_table1.json written]\n"

(* ------------------------------------------------------------------ *)
(* Propagation micro-benchmark                                         *)
(* ------------------------------------------------------------------ *)

(* The `cyclic` stress profile — deep copy chains, local copy cycles and
   static mutual-recursion rings — isolates the solver's propagation
   core (online cycle elimination + topological worklist ordering) from
   context-machinery cost.  Snapshotted to BENCH_prop.json so the CI
   perf gate catches regressions in exactly that code path, which the
   DaCapo-profile grid exercises only weakly. *)
let prop_analyses = [ "insens"; "1call"; "1obj"; "S-2obj+H" ]

(* The propagation grid's defaults apply only where `--benchmarks` /
   `--analyses` left the selection alone. *)
let benchmarks_given = ref false
let analyses_given = ref false

let select_prop_grid () =
  if not !benchmarks_given then
    selected_profiles := [ Option.get (Profile.by_name "cyclic") ];
  if not !analyses_given then selected_analyses := prop_analyses

let cmd_propbench () =
  select_prop_grid ();
  Printf.printf "=== Propagation micro-benchmark (%s) ===\n\n"
    (String.concat ", "
       (List.map (fun p -> p.Profile.name) (profiles ())));
  let t =
    Table.create
      ~headers:[ "benchmark"; "analysis"; "time (s)"; "iterations"; "nodes" ]
  in
  List.iter
    (fun profile ->
      let name = profile.Profile.name in
      List.iter
        (fun a ->
          match run_one profile a with
          | Done (_, s, stats, _) ->
            Table.add_row t
              [
                name;
                a;
                Printf.sprintf "%.2f" s;
                fmt_int stats.Run_stats.iterations;
                fmt_int stats.Run_stats.n_nodes;
              ]
          | Timed_out _ -> Table.add_row t [ name; a; "-"; "-"; "-" ])
        !selected_analyses)
    (profiles ());
  print_string (Table.render t);
  print_newline ();
  let snapshot = current_snapshot () in
  write_snapshot_file "BENCH_prop.json" snapshot;
  print_endline "[BENCH_prop.json written]\n"

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3_keys =
  [
    ("1call", 'c');
    ("1call+H", 'C');
    ("1obj", 'o');
    ("U-1obj", 'O');
    ("SA-1obj", 'a');
    ("SB-1obj", 'b');
    ("2obj+H", '2');
    ("U-2obj+H", 'U');
    ("S-2obj+H", 'S');
    ("2type+H", 't');
    ("U-2type+H", 'Y');
    ("S-2type+H", 's');
    ("CS", 'x');
    ("CS-2obj+H", 'X');
    ("AD-2obj+H", 'd');
  ]

let cmd_figure3 () =
  print_endline
    "=== Figure 3: performance (time, y) vs precision (may-fail casts, x) ===";
  print_endline "(lower is better on both axes; timeouts omitted)\n";
  List.iter
    (fun profile ->
      let points =
        List.filter_map
          (fun (a, key) ->
            match run_one profile a with
            | Done (m, s, _, _) ->
              Some
                {
                  Scatter.key;
                  label = a;
                  x = float_of_int m.Metrics.may_fail_casts;
                  y = s;
                }
            | Timed_out _ -> None)
          figure3_keys
      in
      print_endline
        (Scatter.render
           ~title:(Printf.sprintf "--- %s ---" profile.Profile.name)
           ~x_label:"may-fail casts" ~y_label:"time (s)" points))
    (profiles ())

(* ------------------------------------------------------------------ *)
(* Summary: the paper's headline ratios                                *)
(* ------------------------------------------------------------------ *)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Per-benchmark ratios of two analyses' outcomes, over benchmarks where
   both finished. *)
let ratio_over_benchmarks f num den =
  List.filter_map
    (fun profile ->
      match (run_one profile num, run_one profile den) with
      | Done (m1, s1, _, _), Done (m2, s2, _, _) -> (
        match f (m1, s1) (m2, s2) with
        | r when r > 0. && Float.is_finite r -> Some r
        | _ -> None)
      | _ -> None)
    (profiles ())

let time_ratio num den =
  geomean (ratio_over_benchmarks (fun (_, s1) (_, s2) -> s1 /. s2) num den)

let svpt_ratio num den =
  geomean
    (ratio_over_benchmarks
       (fun (m1, _) (m2, _) ->
         float_of_int m1.Metrics.sensitive_vpt
         /. float_of_int m2.Metrics.sensitive_vpt)
       num den)

let casts_delta better worse =
  geomean
    (ratio_over_benchmarks
       (fun (m1, _) (m2, _) ->
         float_of_int m2.Metrics.may_fail_casts
         /. float_of_int (max 1 m1.Metrics.may_fail_casts))
       better worse)

let cmd_summary () =
  print_endline "=== Summary: headline ratios (geometric means over benchmarks) ===\n";
  let line fmt = Printf.printf (fmt ^^ "\n") in
  line "S-2obj+H vs 2obj+H:";
  line "  speedup (time)        : %.2fx   (paper: 1.53x average speedup)"
    (time_ratio "2obj+H" "S-2obj+H");
  line "  sensitive-vpt ratio   : %.2fx smaller" (svpt_ratio "2obj+H" "S-2obj+H");
  line "  may-fail-casts margin : %.2fx fewer  (paper: more precise)"
    (casts_delta "S-2obj+H" "2obj+H");
  line "";
  line "SB-1obj vs 1obj:";
  line "  speedup (time)        : %.2fx   (paper: ~1.12x with higher precision)"
    (time_ratio "1obj" "SB-1obj");
  line "  may-fail-casts margin : %.2fx fewer" (casts_delta "SB-1obj" "1obj");
  line "";
  line "SA-1obj vs 1obj:";
  line
    "  speedup (time)        : %.2fx   (paper: consistently faster, similar \
     precision)"
    (time_ratio "1obj" "SA-1obj");
  line "";
  line "Uniform hybrids (the cost of keeping both contexts everywhere):";
  line
    "  U-1obj    slowdown vs 1obj    : %.2fx   (paper: ~3.9x avg for the naive \
     hybrid)"
    (time_ratio "U-1obj" "1obj");
  line "  U-2obj+H  slowdown vs S-2obj+H: %.2fx   (paper: typically well over 3x)"
    (time_ratio "U-2obj+H" "S-2obj+H");
  line
    "  U-2type+H slowdown vs 2type+H : %.2fx   (paper: often under 2x; the \
     reasonable uniform)"
    (time_ratio "U-2type+H" "2type+H");
  line "";
  line "Call-site sensitivity (reference points):";
  line "  1call+H slowdown vs 1call     : %.2fx   (paper: large cost, little gain)"
    (time_ratio "1call+H" "1call");
  line "  1call+H casts margin vs 1call : %.2fx fewer" (casts_delta "1call+H" "1call");
  line "";
  line "Precision ordering (total may-fail casts across finished benchmarks):";
  List.iter
    (fun a ->
      let total =
        List.fold_left
          (fun acc profile ->
            match run_one profile a with
            | Done (m, _, _, _) -> acc + m.Metrics.may_fail_casts
            | Timed_out _ -> acc)
          0 (profiles ())
      in
      line "  %-10s %6d" a total)
    analyses

(* ------------------------------------------------------------------ *)
(* Ablation study: the bad context combinations of Section 3            *)
(* ------------------------------------------------------------------ *)

let cmd_ablation () =
  print_endline "=== Ablation: the context combinations the paper dismisses ===";
  print_endline
    "(X-2obj+IH: call-site heap context; X-2obj+Hrev: inverted heap/hctx
    \ significance; X-freemix: free mixing that can drop the receiver;
    \ 2obj+H/fb: field-based instead of field-sensitive heap)
";
  let subjects = [ "2obj+H"; "S-2obj+H"; "X-2obj+IH"; "X-2obj+Hrev"; "X-freemix" ] in
  List.iter
    (fun bench_name ->
      let profile = Option.get (Profile.by_name bench_name) in
      let t =
        Table.create
          ~headers:
            [ "analysis"; "avg objs"; "cg edges"; "may-fail casts"; "time (s)";
              "sensitive vpt" ]
      in
      List.iter
        (fun a ->
          match run_one profile a with
          | Done (m, secs, _, _) ->
            Table.add_row t
              [
                a;
                fmt_float m.Metrics.avg_objs_per_var;
                fmt_int m.Metrics.call_graph_edges;
                fmt_int m.Metrics.may_fail_casts;
                Printf.sprintf "%.2f" secs;
                fmt_int m.Metrics.sensitive_vpt;
              ]
          | Timed_out _ -> Table.add_row t [ a; "-"; "-"; "-"; "-"; "-" ])
        subjects;
      (* Field-based heap abstraction as a further ablation row. *)
      (let program = Workloads.program profile in
       let factory = Option.get (Strategies.by_name "2obj+H") in
       match
         let t0 = Unix.gettimeofday () in
         let solver =
           Solver.solve
             ~config:(Solver.Config.make ~timeout_s ~field_based:true ())
             program (factory program)
         in
         (Unix.gettimeofday () -. t0, Metrics.compute solver)
       with
       | secs, m ->
         Table.add_row t
           [
             "2obj+H/fb";
             fmt_float m.Metrics.avg_objs_per_var;
             fmt_int m.Metrics.call_graph_edges;
             fmt_int m.Metrics.may_fail_casts;
             Printf.sprintf "%.2f" secs;
             fmt_int m.Metrics.sensitive_vpt;
           ]
       | exception Solver.Timeout _ ->
         Table.add_row t [ "2obj+H/fb"; "-"; "-"; "-"; "-"; "-" ]);
      Printf.printf "--- %s ---\n%s\n" bench_name (Table.render t))
    [ "antlr"; "luindex"; "pmd" ]

(* ------------------------------------------------------------------ *)
(* Future work (paper Section 6): adaptive context constructors         *)
(* ------------------------------------------------------------------ *)

let cmd_futurework () =
  print_endline "=== Future work: adaptive constructors (paper Section 6) ===";
  print_endline
    "(A-*: MergeStatic/Record inspect the incoming context's form;\n\
    \ AD-*: per-callee depth dispatch on a hotness oracle;\n\
    \ CS-*: cut-shortcut — trivial calls threaded through the caller)\n";
  let subjects =
    [ "2obj+H"; "S-2obj+H"; "A-2obj+H"; "AD-2obj+H"; "CS-2obj+H"; "2type+H";
      "S-2type+H"; "A-2type+H" ]
  in
  List.iter
    (fun bench_name ->
      let profile = Option.get (Profile.by_name bench_name) in
      let t =
        Table.create
          ~headers:
            [ "analysis"; "avg objs"; "cg edges"; "may-fail casts"; "time (s)";
              "sensitive vpt" ]
      in
      List.iter
        (fun a ->
          match run_one profile a with
          | Done (m, secs, _, _) ->
            Table.add_row t
              [
                a;
                fmt_float m.Metrics.avg_objs_per_var;
                fmt_int m.Metrics.call_graph_edges;
                fmt_int m.Metrics.may_fail_casts;
                Printf.sprintf "%.2f" secs;
                fmt_int m.Metrics.sensitive_vpt;
              ]
          | Timed_out _ -> Table.add_row t [ a; "-"; "-"; "-"; "-"; "-" ])
        subjects;
      Printf.printf "--- %s ---\n%s\n" bench_name (Table.render t))
    [ "antlr"; "jython"; "lusearch" ]

(* ------------------------------------------------------------------ *)
(* Scaling study (extension): how cost grows with program size          *)
(* ------------------------------------------------------------------ *)

let cmd_scaling () =
  print_endline "=== Scaling: analysis cost vs program size (luindex profile) ===\n";
  let base = Option.get (Profile.by_name "luindex") in
  let t =
    Table.create
      ~headers:
        [ "scale"; "methods"; "1obj time"; "1obj svpt"; "2obj+H time";
          "2obj+H svpt"; "S-2obj+H time"; "S-2obj+H svpt" ]
  in
  List.iter
    (fun factor ->
      let profile =
        { (Profile.scale factor base) with Profile.name = Printf.sprintf "luindex-x%.1f" factor }
      in
      let program = Workloads.program profile in
      let cell name =
        let factory = Option.get (Strategies.by_name name) in
        match
          let t0 = Unix.gettimeofday () in
          let solver =
            Solver.solve
              ~config:(Solver.Config.make ~timeout_s ())
              program (factory program)
          in
          (Unix.gettimeofday () -. t0, Metrics.compute solver)
        with
        | secs, m ->
          (Printf.sprintf "%.2f" secs, fmt_int m.Metrics.sensitive_vpt)
        | exception Solver.Timeout _ -> ("-", "-")
      in
      let t1, s1 = cell "1obj" in
      let t2, s2 = cell "2obj+H" in
      let t3, s3 = cell "S-2obj+H" in
      Table.add_row t
        [
          Printf.sprintf "%.1fx" factor;
          string_of_int (Ir.Program.n_meths program);
          t1; s1; t2; s2; t3; s3;
        ])
    [ 0.5; 1.0; 1.5; 2.0 ];
  print_string (Table.render t);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let cmd_micro () =
  let open Bechamel in
  let open Toolkit in
  let module Intset = Pta_solver.Intset in
  let random_set seed n =
    let rng = Pta_workloads.Rng.create seed in
    let rec go acc k =
      if k = 0 then acc
      else go (Intset.add (Pta_workloads.Rng.int rng 100_000) acc) (k - 1)
    in
    go Intset.empty n
  in
  let s1 = random_set 1L 10_000 and s2 = random_set 2L 10_000 in
  let s3 = random_set 4L 10_000 in
  let tiny = Option.get (Profile.by_name "tiny") in
  let tiny_program = Workloads.program tiny in
  let mjdk_src = Pta_mjdk.Mjdk.source in
  let tests =
    Test.make_grouped ~name:"hybridpta"
      [
        Test.make ~name:"intset-union-10k"
          (Staged.stage (fun () -> ignore (Intset.union s1 s2)));
        Test.make ~name:"intset-add-1k"
          (Staged.stage (fun () -> ignore (random_set 3L 1_000)));
        (* The solver's delta computation: one fused traversal vs the
           two diffs it replaced. *)
        Test.make ~name:"intset-diff2-10k"
          (Staged.stage (fun () -> ignore (Intset.diff2 s1 s2 s3)));
        Test.make ~name:"parse-mjdk"
          (Staged.stage (fun () ->
               ignore (Pta_frontend.Frontend.parse ~file:"<mjdk>" mjdk_src)));
        (* The default config's observer is null — this measures the
           solver with instrumentation compiled in but switched off. *)
        Test.make ~name:"solver-1obj-tiny"
          (Staged.stage (fun () ->
               ignore (Solver.solve tiny_program (Strategies.get "1obj" tiny_program))));
        (* Same run with a live recorder, to expose the observer tax. *)
        Test.make ~name:"solver-1obj-tiny-recorded"
          (Staged.stage (fun () ->
               let recorder = Pta_obs.Recorder.create () in
               let config =
                 Solver.Config.make
                   ~observer:(Pta_obs.Recorder.observer recorder)
                   ()
               in
               ignore
                 (Solver.solve ~config tiny_program
                    (Strategies.get "1obj" tiny_program))));
        (* Same run with a live trace sink, to expose the tracer tax
           (compare against solver-1obj-tiny: the untraced run must not
           be measurably slower than before the tracer existed). *)
        Test.make ~name:"solver-1obj-tiny-traced"
          (Staged.stage (fun () ->
               let trace = Trace.create ~limit:4096 () in
               let config = Solver.Config.make ~trace () in
               ignore
                 (Solver.solve ~config tiny_program
                    (Strategies.get "1obj" tiny_program))));
        Test.make ~name:"solver-S-2obj+H-tiny"
          (Staged.stage (fun () ->
               ignore
                 (Solver.solve tiny_program
                    (Strategies.get "S-2obj+H" tiny_program))));
        Test.make ~name:"solver-U-2obj+H-tiny"
          (Staged.stage (fun () ->
               ignore
                 (Solver.solve tiny_program
                    (Strategies.get "U-2obj+H" tiny_program))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  print_endline "=== Micro-benchmarks (Bechamel, monotonic clock) ===\n";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Regression gate: --baseline FILE --compare                          *)
(* ------------------------------------------------------------------ *)

let cmd_compare ~baseline_file ~time_tol ~heap_tol ~heap_component_tol
    ~delta_md ~snapshot_out () =
  (* Fail early on an unreadable/unparseable baseline, but do NOT
     retain the parsed document across the measured grid: the cells'
     GC profile is a deterministic function of the process's allocation
     history, and holding a parsed JSON tree live while they run shifts
     their heap figures measurably relative to the `table1` process
     that blessed the baseline.  Parse, drop, measure, re-parse. *)
  (match Comparator.load_file baseline_file with
  | Ok (_ : Snapshot.t) -> ()
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 2);
  let current = current_snapshot () in
  Option.iter
    (fun path ->
      write_snapshot_file path current;
      Printf.printf "[%s written]\n%!" path)
    snapshot_out;
  let baseline =
    match Comparator.load_file baseline_file with
    | Ok b -> b
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
  in
  (* Gate only over the selected benchmark x analysis subset. *)
  let subset =
    Comparator.subset_of
      ~benchmarks:(Some (List.map (fun p -> p.Profile.name) (profiles ())))
      ~analyses:(Some !selected_analyses)
  in
  let thresholds =
    {
      Snapshot.default_thresholds with
      Snapshot.time_tol_pct = time_tol;
      heap_tol_pct = heap_tol;
      heap_component_tol_pct = heap_component_tol;
    }
  in
  Printf.printf "=== Regression report (vs %s) ===\n%!" baseline_file;
  let outcome =
    Comparator.gate ~thresholds ~subset ?delta_md ~baseline ~current ()
  in
  if outcome.Comparator.failed then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: bench \
     [table1|propbench|figure3|summary|ablation|scaling|futurework|micro|all]*\n\
    \       bench --baseline FILE --compare [--time-tol PCT] [--heap-tol PCT]\n\
    \             [--heap-component-tol PCT] [--benchmarks a,b,c]\n\
    \             [--analyses x,y,z]\n\
    \             [--delta-md FILE] [--snapshot-out FILE]\n";
  exit 2

let () =
  let baseline = ref None in
  let compare_mode = ref false in
  let time_tol = ref Snapshot.default_thresholds.Snapshot.time_tol_pct in
  let heap_tol = ref Snapshot.default_thresholds.Snapshot.heap_tol_pct in
  let heap_component_tol =
    ref Snapshot.default_thresholds.Snapshot.heap_component_tol_pct
  in
  let delta_md = ref None in
  let snapshot_out = ref None in
  let cmds = ref [] in
  let float_arg v =
    match float_of_string_opt v with Some f -> f | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--compare" :: rest ->
      compare_mode := true;
      parse rest
    | "--time-tol" :: v :: rest ->
      time_tol := float_arg v;
      parse rest
    | "--heap-tol" :: v :: rest ->
      heap_tol := float_arg v;
      parse rest
    | "--heap-component-tol" :: v :: rest ->
      heap_component_tol := float_arg v;
      parse rest
    | "--delta-md" :: v :: rest ->
      delta_md := Some v;
      parse rest
    | "--snapshot-out" :: v :: rest ->
      snapshot_out := Some v;
      parse rest
    | "--benchmarks" :: v :: rest ->
      benchmarks_given := true;
      selected_profiles :=
        List.map
          (fun name ->
            match Profile.by_name name with
            | Some p -> p
            | None ->
              Printf.eprintf "unknown benchmark %S\n" name;
              exit 2)
          (String.split_on_char ',' v);
      parse rest
    | "--analyses" :: v :: rest ->
      analyses_given := true;
      selected_analyses :=
        List.map
          (fun name ->
            match Strategies.by_name name with
            | Some _ -> name
            | None ->
              Printf.eprintf "unknown analysis %S\n" name;
              exit 2)
          (String.split_on_char ',' v);
      parse rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
      Printf.eprintf "unknown flag %S\n" flag;
      usage ()
    | cmd :: rest ->
      cmds := cmd :: !cmds;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !compare_mode then begin
    match !baseline with
    | None ->
      Printf.eprintf "--compare requires --baseline FILE\n";
      usage ()
    | Some baseline_file ->
      if !cmds <> [] then usage ();
      cmd_compare ~baseline_file ~time_tol:!time_tol ~heap_tol:!heap_tol
        ~heap_component_tol:!heap_component_tol ~delta_md:!delta_md
        ~snapshot_out:!snapshot_out ()
  end
  else begin
    let cmds = if !cmds = [] then [ "all" ] else List.rev !cmds in
    List.iter
      (fun cmd ->
        match cmd with
        | "table1" -> cmd_table1 ()
        | "propbench" -> cmd_propbench ()
        | "figure3" -> cmd_figure3 ()
        | "summary" -> cmd_summary ()
        | "micro" -> cmd_micro ()
        | "ablation" -> cmd_ablation ()
        | "scaling" -> cmd_scaling ()
        | "futurework" -> cmd_futurework ()
        | "all" ->
          cmd_table1 ();
          cmd_figure3 ();
          cmd_summary ();
          cmd_ablation ();
          cmd_futurework ();
          cmd_scaling ();
          cmd_micro ()
        | other ->
          Printf.eprintf
            "unknown command %S (expected table1 | propbench | figure3 | \
             summary | ablation | scaling | futurework | micro | all)\n"
            other;
          exit 2)
      cmds
  end
