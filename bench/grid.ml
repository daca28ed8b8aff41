(* The evaluation grids behind `pointsto bench`; see grid.mli. *)

module Ir = Pta_ir.Ir
module Metrics = Pta_clients.Metrics
module Profile = Pta_workloads.Profile
module Workloads = Pta_workloads.Workloads
module Solver = Pta_solver.Solver
module Table = Pta_report.Table
module Scatter = Pta_report.Scatter
module Driver = Pta_driver.Driver
module Json = Pta_obs.Json
module Budget = Pta_obs.Budget
module Census = Pta_obs.Census
module Snapshot = Pta_report.Bench_snapshot

(* Table-1 column order and the per-group partition used for marking the
   best time (the paper's bold entries; we use a trailing '*'). *)
let analysis_groups =
  [
    [ "1call"; "1call+H" ];
    [ "1obj"; "U-1obj"; "SA-1obj"; "SB-1obj" ];
    [ "2obj+H"; "U-2obj+H"; "S-2obj+H" ];
    [ "2type+H"; "U-2type+H"; "S-2type+H" ];
    [ "CS"; "CS-2obj+H" ];
  ]

let table1_analyses = List.concat analysis_groups

(* The `cyclic` stress profile — deep copy chains, local copy cycles and
   static mutual-recursion rings — isolates the solver's propagation
   core (online cycle elimination + topological worklist ordering) from
   context-machinery cost, under this analysis spread. *)
let prop_analyses = [ "insens"; "1call"; "1obj"; "S-2obj+H" ]

(* ------------------------------------------------------------------ *)
(* One cell, in its own process                                        *)
(* ------------------------------------------------------------------ *)

type request = {
  profile : Profile.t;
  analysis : string;
  field_based : bool;
  timeout_s : float;
}

type measured = {
  metrics : Metrics.t;
  best_s : float;  (* minimum of the three timed solves *)
  iterations : int;  (* of the first solve, like the two below *)
  nodes : int;
  peak_heap_words : int;
  census : Census.component list;  (* its solved state's census *)
  methods : int;  (* IR methods of the program *)
}

type outcome = Done of measured | Timed_out of Budget.abort

(* Minimum of three timed runs.  The analysis is deterministic, so
   scheduler/VM interference can only ADD time — the minimum is the
   least-noisy estimate of the true cost, and it is what the regression
   gate compares against a committed baseline.  The three runs are the
   same untraced, stats-collecting solve; metrics, counters and the
   census come from the first, and the census is taken after the timed
   re-runs so its [Gc.full_major] cannot perturb them. *)
let measure r =
  let program = Workloads.program r.profile in
  let run_once () =
    Driver.run
      ~config:
        (Solver.Config.make ~timeout_s:r.timeout_s ~field_based:r.field_based
           ())
      ~collect_stats:true program ~analysis:r.analysis
  in
  match run_once () with
  | Error (Driver.Timed_out { abort; _ }) -> Ok (Timed_out abort)
  | Error e -> Error (Format.asprintf "%a" Driver.pp_error e)
  | Ok r1 ->
    let time = function
      | Ok (r : Driver.run) -> r.Driver.wall_time_s
      | Error _ -> infinity
    in
    let times =
      [ r1.Driver.wall_time_s; time (run_once ()); time (run_once ()) ]
    in
    let census = (Solver.census r1.Driver.solver).Census.components in
    Ok
      (Done
         {
           metrics = Metrics.compute r1.Driver.solver;
           best_s = List.fold_left min infinity times;
           iterations = r1.Driver.iterations;
           nodes = Solver.n_nodes r1.Driver.solver;
           peak_heap_words =
             (Option.get r1.Driver.memory).Pta_obs.Memstats.peak_heap_words;
           census;
           methods = Ir.Program.n_meths program;
         })

(* The body of `pointsto bench cell`: one marshalled [request] on stdin,
   one marshalled [(outcome, string) result] on stdout. *)
let child () =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let reply : (outcome, string) result =
    match measure (Marshal.from_channel stdin : request) with
    | r -> r
    | exception e -> Error (Printexc.to_string e)
  in
  Marshal.to_channel stdout reply [];
  flush stdout

let spawn (req : request) : (outcome, string) result =
  (* A child that dies before reading its request must fail the cell,
     not kill the parent with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let in_rd, in_wr = Unix.pipe ~cloexec:true () in
  let out_rd, out_wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "bench"; "cell" |] in_rd out_wr Unix.stderr
  in
  Unix.close in_rd;
  Unix.close out_wr;
  let oc = Unix.out_channel_of_descr in_wr in
  (try Marshal.to_channel oc req [] with Sys_error _ -> ());
  close_out_noerr oc;
  let ic = Unix.in_channel_of_descr out_rd in
  let reply =
    try Some (Marshal.from_channel ic : (outcome, string) result)
    with End_of_file | Failure _ -> None
  in
  close_in_noerr ic;
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match (wait (), reply) with
  | Unix.WEXITED 0, Some r -> r
  | Unix.WEXITED n, _ ->
    Error (Printf.sprintf "cell process exited with code %d" n)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Error (Printf.sprintf "cell process killed by signal %d" s)

(* A grid run: the per-cell cutoff and the cells measured so far, so
   that commands run together ([all]) share their cells. *)
type t = {
  timeout_s : float;
  runs : (string * string * bool, outcome) Hashtbl.t;
}

let create ~timeout_s = { timeout_s; runs = Hashtbl.create 256 }

let run_cell g ?(field_based = false) profile analysis =
  let name = profile.Profile.name in
  let key = (name, analysis, field_based) in
  match Hashtbl.find_opt g.runs key with
  | Some o -> o
  | None ->
    let o =
      match
        spawn { profile; analysis; field_based; timeout_s = g.timeout_s }
      with
      | Ok o -> o
      | Error e ->
        (* 123: cmdliner's code for errors reported on stderr *)
        Printf.eprintf "pointsto: bench cell %s/%s: %s\n%!" name analysis e;
        exit 123
    in
    Hashtbl.replace g.runs key o;
    (match o with
    | Done r ->
      Printf.eprintf "  [bench] %-10s %-10s %6.2fs\n%!" name analysis r.best_s
    | Timed_out abort ->
      Printf.eprintf
        "  [bench] %-10s %-10s TIMEOUT (>%.0fs; %.1fs elapsed, %d iterations, \
         %d nodes)\n\
         %!"
        name analysis g.timeout_s abort.Budget.elapsed_s abort.Budget.iterations
        abort.Budget.nodes);
    o

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot_cell benchmark analysis = function
  | Done r ->
    {
      Snapshot.benchmark;
      analysis;
      timed_out = false;
      time_s = r.best_s;
      iterations = r.iterations;
      nodes = Some r.nodes;
      peak_heap_words = Some r.peak_heap_words;
      heap_components = r.census;
    }
  | Timed_out abort ->
    {
      Snapshot.benchmark;
      analysis;
      timed_out = true;
      time_s = abort.Budget.elapsed_s;
      iterations = abort.Budget.iterations;
      nodes = Some abort.Budget.nodes;
      peak_heap_words = None;
      heap_components = [];
    }

let snapshot g ~benchmarks ~analyses =
  {
    Snapshot.timeout_s = g.timeout_s;
    pointsto = Some (Pta_version.Version.to_json ());
    cells =
      List.concat_map
        (fun p ->
          List.map
            (fun a -> snapshot_cell p.Profile.name a (run_cell g p a))
            analyses)
        benchmarks;
  }

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "[%s written]\n%!" path

let write_snapshot path s =
  write_file path (Json.to_string (Snapshot.to_json s) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let fmt_float x = Printf.sprintf "%.2f" x
let fmt_int = string_of_int
let fmt_k n = Printf.sprintf "%.1fK" (float_of_int n /. 1000.)

let table1_block g ~analyses profile =
  let outcomes = List.map (fun a -> (a, run_cell g profile a)) analyses in
  let headline =
    match List.find_map (function _, Done r -> Some r | _ -> None) outcomes with
    | Some r ->
      let m = r.metrics in
      Printf.sprintf
        "%s  (%d methods, ~%d reachable; v-calls of ~%d, casts of ~%d)"
        profile.Profile.name r.methods m.Metrics.reachable_methods
        m.Metrics.total_vcalls m.Metrics.total_casts
    | None -> profile.Profile.name
  in
  let t = Table.create ~headers:("metric" :: analyses) in
  let row label f =
    Table.add_row t
      (label
      :: List.map
           (fun (a, o) -> match o with Done r -> f a r | Timed_out _ -> "-")
           outcomes)
  in
  let metric_row label f = row label (fun _ r -> f r.metrics) in
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
    List.filter_map
      (fun group ->
        List.fold_left
          (fun best (a, o) ->
            match (o, best) with
            | Done r, Some (_, s) when r.best_s >= s -> best
            | Done r, _ when List.mem a group -> Some (a, r.best_s)
            | _ -> best)
          None outcomes
        |> Option.map fst)
      analysis_groups
  in
  row "elapsed time (s)" (fun a r ->
      Printf.sprintf "%.2f%s" r.best_s
        (if List.mem a best_in_group then "*" else ""));
  metric_row "sensitive var-points-to" (fun m -> fmt_k m.Metrics.sensitive_vpt);
  (headline, Table.render t)

let table1 g ~benchmarks ~analyses =
  print_endline
    "=== Table 1: precision and performance, all benchmarks x all analyses ===";
  Printf.printf
    "(per-analysis timeout: %.0fs; '-' = timeout, '*' = best time in its \
     analysis group)\n\n"
    g.timeout_s;
  List.iter
    (fun profile ->
      let headline, rendered = table1_block g ~analyses profile in
      print_endline headline;
      print_endline rendered)
    benchmarks;
  let row p a = function
    | Done r ->
      let m = r.metrics in
      [
        p.Profile.name;
        a;
        fmt_float m.Metrics.avg_objs_per_var;
        fmt_int m.Metrics.call_graph_edges;
        fmt_int m.Metrics.poly_vcalls;
        fmt_int m.Metrics.may_fail_casts;
        fmt_int m.Metrics.total_casts;
        fmt_int
          (m.Metrics.taint_flows - Pta_workloads.Gen.taint_ground_truth p);
        Printf.sprintf "%.3f" r.best_s;
        fmt_int m.Metrics.sensitive_vpt;
        fmt_int m.Metrics.n_ctxs;
      ]
    | Timed_out _ -> p.Profile.name :: a :: List.init 9 (fun _ -> "-")
  in
  let rows =
    List.concat_map
      (fun p -> List.map (fun a -> row p a (run_cell g p a)) analyses)
      benchmarks
  in
  write_file "table1.csv"
    (Table.csv
       ~headers:
         [
           "benchmark"; "analysis"; "avg_objs_per_var"; "call_graph_edges";
           "poly_vcalls"; "may_fail_casts"; "total_casts";
           "spurious_taint_flows"; "time_s"; "sensitive_vpt"; "contexts";
         ]
       rows);
  write_snapshot "BENCH_table1.json" (snapshot g ~benchmarks ~analyses);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Propagation grid                                                    *)
(* ------------------------------------------------------------------ *)

let propbench g ~benchmarks ~analyses =
  Printf.printf "=== Propagation micro-benchmark (%s) ===\n\n"
    (String.concat ", " (List.map (fun p -> p.Profile.name) benchmarks));
  let t =
    Table.create
      ~headers:[ "benchmark"; "analysis"; "time (s)"; "iterations"; "nodes" ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          Table.add_row t
            (p.Profile.name :: a
            ::
            (match run_cell g p a with
            | Done r ->
              [
                Printf.sprintf "%.2f" r.best_s;
                fmt_int r.iterations;
                fmt_int r.nodes;
              ]
            | Timed_out _ -> [ "-"; "-"; "-" ])))
        analyses)
    benchmarks;
  print_string (Table.render t);
  print_newline ();
  write_snapshot "BENCH_prop.json" (snapshot g ~benchmarks ~analyses);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3_keys =
  [
    ("1call", 'c'); ("1call+H", 'C'); ("1obj", 'o'); ("U-1obj", 'O');
    ("SA-1obj", 'a'); ("SB-1obj", 'b'); ("2obj+H", '2'); ("U-2obj+H", 'U');
    ("S-2obj+H", 'S'); ("2type+H", 't'); ("U-2type+H", 'Y');
    ("S-2type+H", 's'); ("CS", 'x'); ("CS-2obj+H", 'X');
  ]

let figure3 g ~benchmarks =
  print_endline
    "=== Figure 3: performance (time, y) vs precision (may-fail casts, x) ===";
  print_endline "(lower is better on both axes; timeouts omitted)\n";
  List.iter
    (fun profile ->
      let points =
        List.filter_map
          (fun (a, key) ->
            match run_cell g profile a with
            | Done r ->
              Some
                {
                  Scatter.key;
                  label = a;
                  x = float_of_int r.metrics.Metrics.may_fail_casts;
                  y = r.best_s;
                }
            | Timed_out _ -> None)
          figure3_keys
      in
      print_endline
        (Scatter.render
           ~title:(Printf.sprintf "--- %s ---" profile.Profile.name)
           ~x_label:"may-fail casts" ~y_label:"time (s)" points))
    benchmarks

(* ------------------------------------------------------------------ *)
(* Summary: the paper's headline ratios                                *)
(* ------------------------------------------------------------------ *)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Geometric mean over benchmarks where both analyses finished of
   [f num den]. *)
let ratio g ~benchmarks f num den =
  geomean
    (List.filter_map
       (fun p ->
         match (run_cell g p num, run_cell g p den) with
         | Done r1, Done r2 -> (
           match f r1 r2 with
           | r when r > 0. && Float.is_finite r -> Some r
           | _ -> None)
         | _ -> None)
       benchmarks)

let summary g ~benchmarks =
  let time_ratio = ratio g ~benchmarks (fun r1 r2 -> r1.best_s /. r2.best_s) in
  let svpt_ratio =
    ratio g ~benchmarks (fun r1 r2 ->
        float_of_int r1.metrics.Metrics.sensitive_vpt
        /. float_of_int r2.metrics.Metrics.sensitive_vpt)
  in
  let casts_delta =
    ratio g ~benchmarks (fun better worse ->
        float_of_int worse.metrics.Metrics.may_fail_casts
        /. float_of_int (max 1 better.metrics.Metrics.may_fail_casts))
  in
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
          (fun acc p ->
            match run_cell g p a with
            | Done r -> acc + r.metrics.Metrics.may_fail_casts
            | Timed_out _ -> acc)
          0 benchmarks
      in
      line "  %-10s %6d" a total)
    table1_analyses

(* ------------------------------------------------------------------ *)
(* Ablation (Section 3) and future work (Section 6)                    *)
(* ------------------------------------------------------------------ *)

(* One table per benchmark over [subjects]: (row label, analysis,
   field-based heap?). *)
let study g ~subjects bench_names =
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
        (fun (label, a, field_based) ->
          Table.add_row t
            (label
            ::
            (match run_cell g ~field_based profile a with
            | Done r ->
              let m = r.metrics in
              [
                fmt_float m.Metrics.avg_objs_per_var;
                fmt_int m.Metrics.call_graph_edges;
                fmt_int m.Metrics.may_fail_casts;
                Printf.sprintf "%.2f" r.best_s;
                fmt_int m.Metrics.sensitive_vpt;
              ]
            | Timed_out _ -> [ "-"; "-"; "-"; "-"; "-" ])))
        subjects;
      Printf.printf "--- %s ---\n%s\n" bench_name (Table.render t))
    bench_names

let plain = List.map (fun a -> (a, a, false))

let ablation g =
  print_endline "=== Ablation: the context combinations the paper dismisses ===";
  print_endline
    "(X-2obj+IH: call-site heap context; X-2obj+Hrev: inverted heap/hctx
    \ significance; X-freemix: free mixing that can drop the receiver;
    \ 2obj+H/fb: field-based instead of field-sensitive heap)
";
  study g
    ~subjects:
      (plain [ "2obj+H"; "S-2obj+H"; "X-2obj+IH"; "X-2obj+Hrev"; "X-freemix" ]
      @ [ ("2obj+H/fb", "2obj+H", true) ])
    [ "antlr"; "luindex"; "pmd" ]

(* ------------------------------------------------------------------ *)
(* Scaling study (extension): how cost grows with program size          *)
(* ------------------------------------------------------------------ *)

let scaling g =
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
        {
          (Profile.scale factor base) with
          Profile.name = Printf.sprintf "luindex-x%.1f" factor;
        }
      in
      let cells = List.map (run_cell g profile) [ "1obj"; "2obj+H"; "S-2obj+H" ] in
      let methods =
        List.find_map (function Done r -> Some r.methods | _ -> None) cells
      in
      Table.add_row t
        (Printf.sprintf "%.1fx" factor
        :: Option.fold ~none:"-" ~some:string_of_int methods
        :: List.concat_map
             (function
               | Done r ->
                 [
                   Printf.sprintf "%.2f" r.best_s;
                   fmt_int r.metrics.Metrics.sensitive_vpt;
                 ]
               | Timed_out _ -> [ "-"; "-" ])
             cells))
    [ 0.5; 1.0; 1.5; 2.0 ];
  print_string (Table.render t);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

let compare g ~baseline_name ~baseline ~benchmarks ~analyses ~thresholds =
  let current = snapshot g ~benchmarks ~analyses in
  if baseline.Snapshot.timeout_s <> g.timeout_s then
    Printf.eprintf
      "[bench] warning: baseline timeout %.0fs != current %.0fs; timeout \
       cells may not be comparable\n\
       %!"
      baseline.Snapshot.timeout_s g.timeout_s;
  (* Gate only the measured subset of the baseline. *)
  let names = List.map (fun p -> p.Profile.name) benchmarks in
  let baseline =
    {
      baseline with
      Snapshot.cells =
        List.filter
          (fun (c : Snapshot.cell) ->
            List.mem c.benchmark names && List.mem c.analysis analyses)
          baseline.Snapshot.cells;
    }
  in
  let report = Snapshot.compare ~thresholds ~baseline ~current () in
  Printf.printf "=== Regression report (vs %s) ===\n" baseline_name;
  Format.printf "%a%!" Snapshot.pp_report report;
  Snapshot.has_regression report
