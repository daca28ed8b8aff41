(* The pointsto command-line driver.

   Subcommands:
     analyze    — run one analysis on MJ sources, print metrics
     compare    — run several analyses, print a metric table
     check      — run the points-to-powered checkers, report diagnostics
     taint      — source-to-sink taint flows, per strategy or in detail
     query      — points-to set of one variable
     casts      — may-fail casts with witness allocation sites
     callgraph  — context-insensitive call graph
     dump-ir    — parse, lower and pretty-print the IR
     gen        — emit a synthetic benchmark's MJ source
     strategies — list available analyses
     metrics    — run one analysis, dump the metric registry as OpenMetrics
     heapmap    — run one analysis, print the reachable-heap census
                  (per-component retained/unshared words, set-sharing
                  factor), or gate it against a blessed census JSON
     bench      — the paper's evaluation grids (table1, figure3, summary,
                  ablation, futurework, scaling, propbench, micro, all),
                  the snapshot regression gate (compare), and the
                  bench-history ledger: history append/list/show, trend
                  (report + --check gate), bisect (first bad ledger
                  record, optional git handoff)
     version    — print the build stamp (commit, OCaml version, profile)

   All subcommands share the exit-code contract enforced by
   [Pta_driver.Driver]: 1 = MJ parse/semantic error, 2 = unknown
   analysis (or benchmark), 3 = analysis timeout.  [check] adds
   4 = at least one error-severity diagnostic. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Metrics = Pta_clients.Metrics
module Strategies = Pta_context.Strategies
module Driver = Pta_driver.Driver
module Budget = Pta_obs.Budget
module Json = Pta_obs.Json
module Run_stats = Pta_obs.Run_stats
module Trace = Pta_obs.Trace
module Census = Pta_obs.Census
module Registry = Pta_metrics.Registry
module Version = Pta_version.Version
module Snapshot = Pta_report.Bench_snapshot
module Trend_page = Pta_report.Trend_page
module Hrecord = Pta_bench_history.Record
module Hledger = Pta_bench_history.Ledger
module Htrend = Pta_bench_history.Trend
module Hbisect = Pta_bench_history.Bisect
module Grid = Pta_bench.Grid
module Profile = Pta_workloads.Profile
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"MJ source files.")

let analysis_arg =
  let doc =
    "Context-sensitivity strategy: a preset name such as $(b,S-2obj+H) (see \
     $(b,pointsto strategies) for the list) or a strategy-algebra expression \
     such as $(b,selective(obj 2 1)), $(b,uniform(type 2 1)), \
     $(b,cs(insens)) or $(b,adaptive(obj 2 1, obj 1, 3))."
  in
  Arg.(
    value
    & opt string "S-2obj+H"
    & info [ "a"; "analysis"; "strategy" ] ~docv:"STRATEGY" ~doc)

let no_stdlib_arg =
  let doc = "Do not link the bundled mini-JDK." in
  Arg.(value & flag & info [ "no-stdlib" ] ~doc)

let timeout_info doc = Arg.info [ "timeout" ] ~docv:"SECONDS" ~doc

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & timeout_info "Abort the analysis after $(docv) seconds (exit code 3).")

let stats_json_arg =
  let doc =
    "Write run statistics (wall time, iterations, nodes, edges, contexts, \
     abstract objects, sensitive var-points-to size, per-phase timings) as \
     JSON to $(docv), or to stdout if $(docv) is $(b,-) (the human-readable \
     report then goes to stderr)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record a rule/edge-level execution trace and write it as Chrome \
     trace-event JSON to $(docv), or to stdout if $(docv) is $(b,-) (the \
     human-readable report then goes to stderr).  Open the file in Perfetto \
     (ui.perfetto.dev) or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc = "Report solver progress on stderr while the analysis runs." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let profile_arg =
  let doc =
    "After the run, print the observability profile (counters and per-phase \
     timings) in human-readable form."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Exit-code contract, rendered into every subcommand's man page. *)
let common_exits =
  [
    Cmd.Exit.info 1 ~doc:"on MJ lexical, syntax or semantic errors.";
    Cmd.Exit.info 2 ~doc:"on an unknown analysis or benchmark name.";
    Cmd.Exit.info 3 ~doc:"when the analysis exceeds its time budget.";
  ]
  @ Cmd.Exit.defaults

(* [check] extends the shared contract with its findings signal. *)
let check_exits =
  Cmd.Exit.info 4 ~doc:"when any error-severity diagnostic is reported."
  :: common_exits

let handle = function Ok v -> v | Error e -> Driver.report_and_exit e

(* A client run after the solve exhausted the solve's budget. *)
let timed_out ~analysis abort =
  Driver.report_and_exit (Driver.Timed_out { analysis; abort })

(* [--progress]: a running iteration count on stderr, overwritten in
   place while the fixpoint runs, then one line per solver phase. *)
let config_of ?timeout_s ?trace ?metrics ~progress () =
  let config = Solver.Config.make ?timeout_s ?trace ?metrics () in
  let budget = config.Solver.Config.budget in
  if progress then
    Budget.on_tick budget (fun n ->
        if n land 0xFFFF = 0 then
          Printf.eprintf "\r[progress] %9d iterations %8.1fs%!" n
            (Budget.elapsed_s budget));
  config

let report_phases ~progress solver =
  if progress then
    List.iter
      (fun (name, s) ->
        Printf.eprintf "\r[progress] phase %-10s done in %.3fs%s\n%!" name s
          (String.make 24 ' '))
      (Solver.phases solver)

(* Stats collection implies a live metric registry, so [--stats-json]
   documents carry the [memory] and [metrics] blocks. *)
let metrics_for ~collect_stats ~analysis =
  if collect_stats then Registry.create ~labels:[ ("analysis", analysis) ] ()
  else Registry.null

let sources_of files = List.map (fun f -> Driver.File f) files

(* Exits 123 (cmdliner's "indiscriminate error") on I/O failure rather
   than dying with an uncaught Sys_error. *)
let write_file path contents =
  match open_out path with
  | oc ->
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc contents)
  | exception Sys_error msg ->
    Printf.eprintf "pointsto: cannot write %s: %s\n" path msg;
    exit 123

(* "-" means stdout, so machine output can be piped; the callers then
   route the human-readable report to stderr to keep the two streams
   from interleaving. *)
let write_output path contents =
  if String.equal path "-" then (print_string contents; flush stdout)
  else write_file path contents

let stdout_dest = function Some "-" -> true | _ -> false

(* The human-readable report goes to stdout unless some machine output
   claimed it. *)
let report_ppf ~machine_on_stdout =
  if machine_on_stdout then Format.err_formatter else Format.std_formatter

let trace_sink = function
  | None -> Trace.null
  | Some _ -> Trace.create ()

let emit_trace trace_file trace =
  Option.iter
    (fun path -> write_output path (Json.to_string (Trace.to_chrome_json trace)))
    trace_file

(* Every machine-readable stats document carries the build stamp, so a
   recorded number can be traced back to the binary that produced it. *)
let stamp_build = function
  | Json.Obj fields -> Json.Obj (fields @ [ ("pointsto", Version.to_json ()) ])
  | j -> j

let stats_doc stats = stamp_build (Run_stats.to_json stats)

let emit_stats ~ppf ~stats_json ~profile (r : Driver.run) =
  match r.Driver.stats with
  | None -> ()
  | Some stats ->
    if profile then Format.fprintf ppf "%a@." Run_stats.pp stats;
    Option.iter
      (fun path -> write_output path (Json.to_string (stats_doc stats)))
      stats_json

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let resolve_meth_var program meth_name var_name =
  let cls, rest =
    match String.index_opt meth_name '.' with
    | Some i ->
      ( String.sub meth_name 0 i,
        String.sub meth_name (i + 1) (String.length meth_name - i - 1) )
    | None ->
      Printf.eprintf "--method expects Class.meth/arity\n";
      exit 2
  in
  let mname, arity =
    match String.index_opt rest '/' with
    | Some i ->
      ( String.sub rest 0 i,
        int_of_string (String.sub rest (i + 1) (String.length rest - i - 1)) )
    | None -> (rest, 0)
  in
  let meth =
    match Ir.Program.find_meth program cls mname arity with
    | Some m -> m
    | None ->
      Printf.eprintf "no method %s.%s/%d\n" cls mname arity;
      exit 2
  in
  let var =
    let found = ref None in
    Ir.Program.iter_vars program (fun v info ->
        if Ir.Meth_id.equal info.Ir.var_owner meth
           && String.equal info.Ir.var_name var_name
        then found := Some v);
    match !found with
    | Some v -> v
    | None ->
      Printf.eprintf "no variable %s in %s\n" var_name meth_name;
      exit 2
  in
  (meth, var)

let analyze_cmd =
  let run files analysis no_stdlib timeout_s stats_json trace_file progress
      profile =
    let trace = trace_sink trace_file in
    let collect_stats = stats_json <> None || profile in
    let metrics = metrics_for ~collect_stats ~analysis in
    let config = config_of ?timeout_s ~trace ~metrics ~progress () in
    let ppf =
      report_ppf
        ~machine_on_stdout:(stdout_dest stats_json || stdout_dest trace_file)
    in
    let _program, r =
      handle
        (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~collect_stats
           ~analysis (sources_of files))
    in
    report_phases ~progress r.Driver.solver;
    let metrics = Metrics.compute r.Driver.solver in
    Format.fprintf ppf "analysis: %s (%s)@." analysis
      r.Driver.strategy.Pta_context.Strategy.description;
    Format.fprintf ppf "%a@." Metrics.pp metrics;
    Format.fprintf ppf "elapsed: %.3fs@." r.Driver.wall_time_s;
    emit_stats ~ppf ~stats_json ~profile r;
    emit_trace trace_file trace
  in
  let doc = "Run one points-to analysis and print its metrics." in
  Cmd.v
    (Cmd.info "analyze" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ stats_json_arg $ trace_arg $ progress_arg $ profile_arg)

let compare_cmd =
  let analyses_arg =
    let doc = "Comma-separated analyses to compare." in
    Arg.(
      value
      & opt (list string) [ "1call"; "1obj"; "SB-1obj"; "2obj+H"; "S-2obj+H"; "2type+H" ]
      & info [ "analyses" ] ~docv:"NAMES" ~doc)
  in
  let run files analyses no_stdlib timeout_s stats_json trace_file progress
      profile =
    let program = handle (Driver.load_program ~stdlib:(not no_stdlib) (sources_of files)) in
    (* One shared sink: the trace holds every analysis back to back. *)
    let trace = trace_sink trace_file in
    let ppf =
      report_ppf
        ~machine_on_stdout:(stdout_dest stats_json || stdout_dest trace_file)
    in
    let table =
      Pta_report.Table.create
        ~headers:
          [ "analysis"; "avg objs"; "cg edges"; "poly v-calls"; "may-fail casts";
            "time (s)"; "sensitive vpt" ]
    in
    let collect_stats = stats_json <> None || profile in
    let all_stats = ref [] in
    List.iter
      (fun name ->
        (* Resolution failures abort with exit 2 even mid-table. *)
        let (_ : Pta_context.Strategy.t) =
          handle (Driver.strategy_of_name program name)
        in
        let metrics = metrics_for ~collect_stats ~analysis:name in
        let config = config_of ?timeout_s ~trace ~metrics ~progress () in
        match Driver.run ~config ~collect_stats program ~analysis:name with
        | Ok r ->
          report_phases ~progress r.Driver.solver;
          let m = Metrics.compute r.Driver.solver in
          (match r.Driver.stats with
          | Some stats ->
            if profile then Format.fprintf ppf "%a@." Run_stats.pp stats;
            all_stats := stats_doc stats :: !all_stats
          | None -> ());
          Pta_report.Table.add_row table
            [
              name;
              Printf.sprintf "%.2f" m.Metrics.avg_objs_per_var;
              string_of_int m.Metrics.call_graph_edges;
              Printf.sprintf "%d/%d" m.Metrics.poly_vcalls m.Metrics.total_vcalls;
              Printf.sprintf "%d/%d" m.Metrics.may_fail_casts m.Metrics.total_casts;
              Printf.sprintf "%.3f" r.Driver.wall_time_s;
              string_of_int m.Metrics.sensitive_vpt;
            ]
        | Error (Driver.Timed_out { abort; _ }) ->
          all_stats :=
            Json.Obj
              [
                ("analysis", Json.String name);
                ("timed_out", Json.Bool true);
                ("elapsed_s", Json.Float abort.Pta_obs.Budget.elapsed_s);
                ("iterations", Json.Int abort.Pta_obs.Budget.iterations);
                ("nodes", Json.Int abort.Pta_obs.Budget.nodes);
              ]
            :: !all_stats;
          Pta_report.Table.add_row table [ name; "-"; "-"; "-"; "-"; "-"; "-" ]
        | Error e -> Driver.report_and_exit e)
      analyses;
    Format.fprintf ppf "%s@?" (Pta_report.Table.render table);
    Option.iter
      (fun path ->
        write_output path (Json.to_string (Json.List (List.rev !all_stats))))
      stats_json;
    emit_trace trace_file trace
  in
  let doc = "Compare several analyses on the same program." in
  Cmd.v
    (Cmd.info "compare" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analyses_arg $ no_stdlib_arg $ timeout_arg
      $ stats_json_arg $ trace_arg $ progress_arg $ profile_arg)

(* Load + run for the query-style subcommands: no stats machinery, but
   the same exit-code contract, optional timeout and optional trace.
   The trace file is written before returning, so a "-" destination has
   stdout to itself; the returned formatter is where the report goes.
   A caller that runs a client after the solve passes its own [budget]
   instead of [timeout_s], so the one deadline bounds both. *)
let load_and_solve ?timeout_s ?(budget = Budget.of_seconds_opt timeout_s)
    ?(trace_file = None) ~no_stdlib ~analysis files =
  let trace = trace_sink trace_file in
  let config = { (Solver.Config.make ~trace ()) with Solver.Config.budget } in
  let program, r =
    handle
      (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~analysis
         (sources_of files))
  in
  emit_trace trace_file trace;
  let ppf = report_ppf ~machine_on_stdout:(stdout_dest trace_file) in
  (program, r.Driver.solver, ppf)

let query_cmd =
  let meth_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "method" ] ~docv:"Class.meth/arity" ~doc:"Qualified method name.")
  in
  let var_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "var" ] ~docv:"NAME" ~doc:"Local variable name.")
  in
  let run files analysis no_stdlib timeout_s trace_file meth_name var_name =
    let program, solver, ppf =
      load_and_solve ?timeout_s ~trace_file ~no_stdlib ~analysis files
    in
    let _, var = resolve_meth_var program meth_name var_name in
    let heaps = Solver.ci_var_points_to solver var in
    Format.fprintf ppf "%s may point to %d allocation site(s):@."
      (Ir.Program.var_qualified_name program var)
      (Intset.cardinal heaps);
    Intset.iter
      (fun h ->
        Format.fprintf ppf "  %s@."
          (Ir.Program.heap_name program (Ir.Heap_id.of_int h)))
      heaps
  in
  let doc = "Print the points-to set of one variable." in
  Cmd.v
    (Cmd.info "query" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg $ meth_arg $ var_arg)

let casts_cmd =
  let run files analysis no_stdlib timeout_s trace_file =
    let program, solver, ppf =
      load_and_solve ?timeout_s ~trace_file ~no_stdlib ~analysis files
    in
    let sites = Pta_clients.Casts.analyze solver in
    List.iter
      (fun (site : Pta_clients.Casts.site) ->
        match site.verdict with
        | Pta_clients.Casts.Safe -> ()
        | Pta_clients.Casts.May_fail witnesses ->
          Format.fprintf ppf "MAY FAIL: (%s) cast of %s in %s@."
            (Ir.Program.type_name program site.cast_type)
            (Ir.Program.var_info program site.source).Ir.var_name
            (Ir.Program.meth_qualified_name program site.in_meth);
          List.iteri
            (fun i h ->
              if i < 3 then
                Format.fprintf ppf "    witness: %s@."
                  (Ir.Program.heap_name program h))
            witnesses)
      sites;
    Format.fprintf ppf "%d of %d casts may fail under %s@."
      (Pta_clients.Casts.may_fail_count sites)
      (List.length sites) analysis
  in
  let doc = "List casts the analysis cannot prove safe." in
  Cmd.v
    (Cmd.info "casts" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg)

(* Shared by check and taint: load a spec file, exiting with the CLI
   usage code on parse errors so scripts can distinguish a bad spec from
   analysis findings. *)
let taint_spec_arg =
  let doc =
    "Taint specification file: one directive per line — $(b,source GLOB \
     ret), $(b,source GLOB param I), $(b,sink GLOB arg I|*), $(b,sanitizer \
     GLOB) — with $(b,#) comments.  Globs match qualified method names \
     (Class.meth/arity) as in per-method strategy dispatch."
  in
  Arg.(value & opt (some string) None & info [ "taint-spec" ] ~docv:"FILE" ~doc)

let load_taint_spec = function
  | None -> None
  | Some path -> (
    match Pta_taint.Spec.load path with
    | Ok entries -> Some entries
    | Error msg ->
      Printf.eprintf "pointsto: %s: %s\n" path msg;
      exit 2)

let print_checker_listing () =
  List.iter
    (fun (i : Pta_checkers.Checkers.info) ->
      Printf.printf "%-22s %-8s %s\n" i.code
        (Pta_checkers.Diagnostic.severity_to_string i.severity)
        i.summary)
    Pta_checkers.Checkers.all

let unknown_checker_exit code suggestions available =
  Printf.eprintf "pointsto: unknown checker %S" code;
  (match suggestions with
  | [] -> ()
  | [ s ] -> Printf.eprintf " (did you mean %s?)" s
  | ss -> Printf.eprintf " (did you mean %s?)" (String.concat " or " ss));
  Printf.eprintf "\navailable checkers: %s\n" (String.concat ", " available);
  Printf.eprintf "see `pointsto check --checkers list'\n";
  exit 2

let check_cmd =
  let format_arg =
    let doc =
      "Report format: $(b,text) (gcc-style file:line:col diagnostics) or \
       $(b,sarif) (SARIF 2.1.0 JSON)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let output_arg =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let checkers_arg =
    let doc =
      "Comma-separated checkers to run (default: all), or $(b,list) to \
       print the available checkers and exit.  See the CHECKERS section."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "checkers" ] ~docv:"NAMES" ~doc)
  in
  let include_stdlib_arg =
    let doc =
      "Also report diagnostics located in the bundled mini-JDK (filtered out \
       by default)."
    in
    Arg.(value & flag & info [ "include-stdlib" ] ~doc)
  in
  let run files analysis no_stdlib timeout_s checkers taint_spec format output
      include_stdlib =
    (match checkers with
    | Some [ "list" ] ->
      print_checker_listing ();
      exit 0
    | _ -> ());
    if files = [] then begin
      Printf.eprintf "pointsto: check: no MJ source files given\n";
      exit 124
    end;
    (* One budget bounds the solve, the taint pass and the checkers. *)
    let config = Solver.Config.make ?timeout_s () in
    let budget = config.Solver.Config.budget in
    let program, r =
      handle
        (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~analysis
           (sources_of files))
    in
    let solver = r.Driver.solver in
    let taint =
      match load_taint_spec taint_spec with
      | None -> None
      | Some entries -> (
        let spec = Pta_taint.Spec.compile program entries in
        match Pta_taint.Taint.analyze ~budget solver spec with
        | taint -> Some (Pta_taint.Taint.summary taint)
        | exception Budget.Exhausted abort -> timed_out ~analysis abort)
    in
    let results = Pta_checkers.Results.of_solver ?taint solver in
    let diags =
      match Pta_checkers.Checkers.run ?only:checkers ~budget results with
      | diags -> diags
      | exception Pta_checkers.Checkers.Unknown_checker
          { code; suggestions; available } ->
        unknown_checker_exit code suggestions available
      | exception Budget.Exhausted abort -> timed_out ~analysis abort
    in
    let in_stdlib (d : Pta_checkers.Diagnostic.t) =
      match d.span with
      | Some span ->
        String.equal span.Pta_ir.Srcloc.left.file Pta_mjdk.Mjdk.file_name
      | None -> false
    in
    let diags =
      if include_stdlib then diags else List.filter (fun d -> not (in_stdlib d)) diags
    in
    let rendered =
      match format with
      | `Text ->
        Format.asprintf "%a" Pta_checkers.Diagnostic.pp_report diags
      | `Sarif -> Pta_checkers.Sarif.to_string ~tool_version:"1.0.0" diags
    in
    write_output output rendered;
    if Pta_checkers.Diagnostic.has_errors diags then exit 4
  in
  let files_opt_arg =
    (* Optional here (unlike other subcommands) so `--checkers list`
       works without sources; a missing FILE is rejected in [run]. *)
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"MJ source files.")
  in
  let doc =
    "Run the points-to-powered checkers (may-fail-cast, null-dereference, \
     dead-method, monomorphic-call-site, and — given $(b,--taint-spec) — \
     tainted-sink-argument, sanitizer-bypassed) and report diagnostics."
  in
  let man =
    [
      `S "CHECKERS";
      `Blocks
        (List.concat_map
           (fun (i : Pta_checkers.Checkers.info) ->
             [
               `I
                 ( Printf.sprintf "$(b,%s) (%s)" i.code
                     (Pta_checkers.Diagnostic.severity_to_string i.severity),
                   i.help );
             ])
           Pta_checkers.Checkers.all);
      `S "TAINT";
      `P
        "The two taint checkers run only when $(b,--taint-spec) supplies a \
         specification; without one they report nothing.  The taint pass \
         runs context-sensitively under the same strategy as the checkers' \
         points-to state, so a more precise strategy reports fewer spurious \
         flows.  See $(b,pointsto taint) for per-strategy flow counts.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man ~exits:check_exits)
    Term.(
      const run $ files_opt_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ checkers_arg $ taint_spec_arg $ format_arg $ output_arg
      $ include_stdlib_arg)

let taint_cmd =
  let all_arg =
    let doc =
      "Run every strategy preset and print one flow-count line per \
       strategy (the default when $(b,-a) is not given)."
    in
    Arg.(value & flag & info [ "all-strategies" ] ~doc)
  in
  let run files analysis_opt no_stdlib timeout_s trace_file taint_spec _all =
    let entries =
      match load_taint_spec taint_spec with
      | Some entries -> entries
      | None -> Pta_taint.Spec.default
    in
    match analysis_opt with
    | Some analysis ->
      (* One strategy: every flow, with its provenance chain.  One
         budget bounds the solve and the taint pass. *)
      let budget = Budget.of_seconds_opt timeout_s in
      let program, solver, ppf =
        load_and_solve ~budget ~trace_file ~no_stdlib ~analysis files
      in
      let spec = Pta_taint.Spec.compile program entries in
      let taint =
        match Pta_taint.Taint.analyze ~budget solver spec with
        | taint -> taint
        | exception Budget.Exhausted abort -> timed_out ~analysis abort
      in
      let flows = Pta_taint.Taint.flows taint in
      Format.fprintf ppf "%d source(s), %d sink method(s): %d flow(s) under %s@."
        (Pta_taint.Spec.n_sources spec)
        (List.length (Pta_taint.Spec.sink_meths spec))
        (List.length flows) analysis;
      List.iter
        (fun (f : Pta_taint.Taint.flow) ->
          Format.fprintf ppf "@.FLOW %s -> argument %d of %s@."
            (Pta_taint.Spec.label_name spec f.f_label)
            f.f_pos
            (Ir.Program.invo_name program f.f_invo);
          List.iter
            (fun line -> Format.fprintf ppf "    %s@." line)
            (Pta_taint.Taint.explain_flow taint f))
        flows
    | None ->
      (* The per-strategy precision column: flow counts across every
         preset, so hybrids' spurious-flow advantage is visible. *)
      let program, _r =
        handle
          (Driver.load_and_run ~stdlib:(not no_stdlib)
             ~config:(Solver.Config.make ?timeout_s ())
             ~analysis:"insens" (sources_of files))
      in
      let spec = Pta_taint.Spec.compile program entries in
      let ppf = report_ppf ~machine_on_stdout:false in
      Format.fprintf ppf "%d source(s), %d sink method(s)@."
        (Pta_taint.Spec.n_sources spec)
        (List.length (Pta_taint.Spec.sink_meths spec));
      List.iter
        (fun (name, factory) ->
          let strategy = factory program in
          let config = Solver.Config.make ?timeout_s () in
          let no_result () = Format.fprintf ppf "%-12s -@." name in
          match Solver.solve_outcome ~config program strategy with
          | Solver.Aborted _ -> no_result ()
          | Solver.Complete solver -> (
            match
              Pta_taint.Taint.analyze ~budget:config.Solver.Config.budget
                solver spec
            with
            | taint ->
              Format.fprintf ppf "%-12s %d flow(s)@." name
                (Pta_taint.Taint.n_flows taint)
            | exception Budget.Exhausted _ -> no_result ()))
        Strategies.all
  in
  let analysis_opt_arg =
    let doc =
      "Report each flow under this one strategy, with provenance chains.  \
       Omit it to print flow counts for every preset instead."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "a"; "analysis" ] ~docv:"NAME" ~doc)
  in
  let doc =
    "Context-sensitive taint analysis: source-to-sink flow counts per \
     strategy, or every flow with provenance under one strategy."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the taint pass on top of the solved points-to state: sources \
         label values, labels propagate through copies, casts, the heap \
         (context-sensitively, keyed by the strategy's heap abstraction) \
         and calls, sanitizer calls cut them, and a label reaching a \
         sensitive sink argument is a flow.  Without $(b,--taint-spec), the \
         built-in convention ($(b,*.fetch/*) returns taint, $(b,*.leak/*) \
         sinks every argument, $(b,*.scrub/*) sanitizes) applies.";
      `P
        "Flow identity is (source label, invocation site, argument \
         position), so counts are comparable across strategies: every \
         strategy derives at least the true flows, and more precise \
         strategies — the paper's hybrids in particular — report fewer \
         spurious ones.";
    ]
  in
  Cmd.v
    (Cmd.info "taint" ~doc ~man ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_opt_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg $ taint_spec_arg $ all_arg)

let callgraph_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot on stdout.")
  in
  let run files analysis no_stdlib timeout_s trace_file dot =
    let program, solver, ppf =
      load_and_solve ?timeout_s ~trace_file ~no_stdlib ~analysis files
    in
    (* Method-level edges: caller method -> callee method. *)
    let edges = Hashtbl.create 256 in
    Ir.Program.iter_invos program (fun invo info ->
        Ir.Meth_id.Set.iter
          (fun target ->
            Hashtbl.replace edges
              ( Ir.Program.meth_qualified_name program info.Ir.invo_owner,
                Ir.Program.meth_qualified_name program target )
              ())
          (Solver.invo_targets solver invo));
    let sorted =
      Hashtbl.fold (fun e () acc -> e :: acc) edges [] |> List.sort compare
    in
    if dot then begin
      Format.fprintf ppf "digraph callgraph {@.";
      List.iter
        (fun (src, dst) -> Format.fprintf ppf "  %S -> %S;@." src dst)
        sorted;
      Format.fprintf ppf "}@."
    end
    else begin
      List.iter (fun (src, dst) -> Format.fprintf ppf "%s -> %s@." src dst) sorted;
      Format.fprintf ppf "%d method-level call edges@." (List.length sorted)
    end
  in
  let doc = "Print the computed (context-insensitive) call graph." in
  Cmd.v
    (Cmd.info "callgraph" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg $ dot_arg)

let why_cmd =
  let meth_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "method" ] ~docv:"Class.meth/arity" ~doc:"Qualified method name.")
  in
  let var_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "var" ] ~docv:"NAME" ~doc:"Local variable name.")
  in
  let run files analysis no_stdlib timeout_s trace_file meth_name var_name =
    let budget = Budget.of_seconds_opt timeout_s in
    let program, solver, ppf =
      load_and_solve ~budget ~trace_file ~no_stdlib ~analysis files
    in
    let meth, var = resolve_meth_var program meth_name var_name in
    ignore meth;
    let heaps = Solver.ci_var_points_to solver var in
    if Intset.is_empty heaps then
      Format.fprintf ppf "%s points to nothing under %s@."
        (Ir.Program.var_qualified_name program var)
        analysis
    else
      (* Every chain from one session, all before any is printed, so a
         timeout leaves no partial report. *)
      let session = Pta_clients.Provenance.create ~budget solver in
      let chains =
        match
          List.map
            (fun h ->
              let heap = Ir.Heap_id.of_int h in
              (heap, Pta_clients.Provenance.explain session ~var ~heap))
            (Intset.elements heaps)
        with
        | chains -> chains
        | exception Budget.Exhausted abort -> timed_out ~analysis abort
      in
      List.iter
        (fun (heap, chain) ->
          Format.fprintf ppf "@[<v>%s may point to %s because:@,"
            (Ir.Program.var_qualified_name program var)
            (Ir.Program.heap_name program heap);
          (match chain with
          | Some chain -> Pta_clients.Provenance.pp_chain ppf chain
          | None -> Format.fprintf ppf "  (no witness chain found)@,");
          Format.fprintf ppf "@]@.")
        chains
  in
  let doc = "Explain why a variable may point to each of its allocation sites." in
  Cmd.v
    (Cmd.info "why" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg $ meth_arg $ var_arg)

let stats_cmd =
  let run files analysis no_stdlib timeout_s trace_file =
    let program, solver, ppf =
      load_and_solve ?timeout_s ~trace_file ~no_stdlib ~analysis files
    in
    Format.fprintf ppf "%a@."
      (Pta_clients.Stats.pp program)
      (Pta_clients.Stats.compute solver)
  in
  let doc =
    "Show where the context-sensitive facts come from (heaviest methods,      fattest variables, context histogram)."
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg)

let profile_cmd =
  let top_arg =
    let doc = "Show the $(docv) hottest rows." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let datalog_arg =
    let doc =
      "Profile the reference Datalog implementation (per-rule firings) \
       instead of the native solver (per-edge-kind propagation)."
    in
    Arg.(value & flag & info [ "datalog" ] ~doc)
  in
  let sort_arg =
    let doc = "Order rows by cumulative $(b,time) or $(b,alloc)ation." in
    let sort_conv =
      Arg.conv
        ( (fun s ->
            match Pta_report.Hotspots.sort_of_string s with
            | Ok v -> Ok v
            | Error e -> Error (`Msg e)),
          fun ppf s ->
            Format.pp_print_string ppf
              (match s with
              | Pta_report.Hotspots.By_time -> "time"
              | Pta_report.Hotspots.By_alloc -> "alloc") )
    in
    Arg.(
      value
      & opt sort_conv Pta_report.Hotspots.By_time
      & info [ "sort" ] ~docv:"KEY" ~doc)
  in
  let run files analysis no_stdlib timeout_s trace_file top datalog sort =
    (* Always trace — the profile is read off the sink's aggregates —
       but only write the event timeline when --trace asks for it.  GC
       accounting is on so the alloc column (and the alloc sort) have
       something to show. *)
    let trace = Trace.create ~alloc:true () in
    let ppf = report_ppf ~machine_on_stdout:(stdout_dest trace_file) in
    let wall_time_s =
      let t0 = Unix.gettimeofday () in
      (if datalog then begin
         let program =
           handle (Driver.load_program ~stdlib:(not no_stdlib) (sources_of files))
         in
         let strategy = handle (Driver.strategy_of_name program analysis) in
         let budget = Pta_obs.Budget.of_seconds_opt timeout_s in
         match Pta_refimpl.Refimpl.run ~budget ~trace program strategy with
         | (_ : Pta_refimpl.Refimpl.t) -> ()
         | exception Pta_obs.Budget.Exhausted abort ->
           Driver.report_and_exit (Driver.Timed_out { analysis; abort })
       end
       else
         let config = Solver.Config.make ?timeout_s ~trace () in
         ignore
           (handle
              (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~analysis
                 (sources_of files))));
      Unix.gettimeofday () -. t0
    in
    let cat = if datalog then "rule" else "solver" in
    let rows =
      List.filter_map
        (fun (s : Trace.stat) ->
          if String.equal s.stat_cat cat then
            Some
              {
                Pta_report.Hotspots.name = s.stat_name;
                events = s.events;
                delta = s.delta;
                seconds = s.seconds;
                alloc_words = Trace.stat_alloc_words s;
              }
          else None)
        (Trace.profile trace)
    in
    let title = if datalog then "rule" else "edge kind" in
    Format.fprintf ppf "analysis: %s (%s)@." analysis
      (if datalog then "reference Datalog engine" else "native solver");
    Format.fprintf ppf "%s" (Pta_report.Hotspots.render ~top ~sort ~title rows);
    Format.fprintf ppf "elapsed: %.3fs@." wall_time_s;
    emit_trace trace_file trace
  in
  let doc =
    "Run one analysis under the tracer and print its hot-spot table \
     (per-Datalog-rule with $(b,--datalog), per-edge-kind otherwise), with \
     cumulative wall time and allocation per row."
  in
  Cmd.v
    (Cmd.info "profile" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg $ top_arg $ datalog_arg $ sort_arg)

let decompile_cmd =
  let run files no_stdlib =
    let program =
      handle (Driver.load_program ~stdlib:(not no_stdlib) (sources_of files))
    in
    print_string (Pta_frontend.To_mj.program_to_source program)
  in
  let doc = "Parse, lower, and print back equivalent MJ source." in
  Cmd.v
    (Cmd.info "decompile" ~doc ~exits:common_exits)
    Term.(const run $ files_arg $ no_stdlib_arg)

let exceptions_cmd =
  let run files analysis no_stdlib timeout_s trace_file =
    let program, solver, ppf =
      load_and_solve ?timeout_s ~trace_file ~no_stdlib ~analysis files
    in
    let escapes = Pta_clients.Exceptions.escapes solver in
    List.iter
      (fun (e : Pta_clients.Exceptions.escape) ->
        Format.fprintf ppf "%s may leak:@."
          (Ir.Program.meth_qualified_name program e.meth);
        List.iter
          (fun h -> Format.fprintf ppf "    %s@." (Ir.Program.heap_name program h))
          e.exceptions)
      escapes;
    let uncaught = Pta_clients.Exceptions.uncaught_at_entries solver escapes in
    Format.fprintf ppf
      "%d method(s) may leak exceptions; %d site(s) may escape main@."
      (List.length escapes) (List.length uncaught)
  in
  let doc = "Report which exceptions may escape which methods." in
  Cmd.v
    (Cmd.info "exceptions" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ trace_arg)

let dump_ir_cmd =
  let run files no_stdlib =
    let program =
      handle (Driver.load_program ~stdlib:(not no_stdlib) (sources_of files))
    in
    Format.printf "@[<v>%a@]@." Pta_ir.Ir_pp.pp_program program
  in
  let doc = "Parse, lower and pretty-print the IR." in
  Cmd.v
    (Cmd.info "dump-ir" ~doc ~exits:common_exits)
    Term.(const run $ files_arg $ no_stdlib_arg)

let gen_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (or 'tiny').")
  in
  let run name =
    match Pta_workloads.Profile.by_name name with
    | None ->
      Printf.eprintf "unknown benchmark %S; available: tiny %s\n" name
        (String.concat " " Pta_workloads.Workloads.names);
      exit 2
    | Some profile -> print_string (Pta_workloads.Gen.generate profile)
  in
  let doc = "Emit a synthetic benchmark's MJ source on stdout." in
  Cmd.v (Cmd.info "gen" ~doc ~exits:common_exits) Term.(const run $ bench_arg)

let strategies_cmd =
  let run () =
    List.iter
      (fun { Strategies.name; term; description } ->
        Printf.printf "%-12s %-28s %s\n" name
          (Pta_context.Algebra.to_string term)
          description)
      Strategies.presets
  in
  let doc =
    "List available context-sensitivity strategies.  Each preset is shown \
     with its strategy-algebra expression; any such expression (or a \
     variation of one) can be passed directly to $(b,--strategy) on the \
     analysis subcommands."
  in
  Cmd.v
    (Cmd.info "strategies" ~doc ~exits:common_exits)
    Term.(const run $ const ())

let metrics_cmd =
  let output_arg =
    let doc =
      "Write the OpenMetrics dump to $(docv) instead of stdout ($(b,-) also \
       means stdout)."
    in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let datalog_arg =
    let doc =
      "Meter the reference Datalog implementation (per-rule fact counters, \
       round counter, per-relation sizes) instead of the native solver."
    in
    Arg.(value & flag & info [ "datalog" ] ~doc)
  in
  let run files analysis no_stdlib timeout_s output datalog =
    let metrics = Registry.create ~labels:[ ("analysis", analysis) ] () in
    (if datalog then begin
       let program =
         handle
           (Driver.load_program ~stdlib:(not no_stdlib) ~metrics
              (sources_of files))
       in
       let strategy = handle (Driver.strategy_of_name program analysis) in
       let budget = Pta_obs.Budget.of_seconds_opt timeout_s in
       match Pta_refimpl.Refimpl.run ~budget ~metrics program strategy with
       | (_ : Pta_refimpl.Refimpl.t) -> ()
       | exception Pta_obs.Budget.Exhausted abort ->
         Driver.report_and_exit (Driver.Timed_out { analysis; abort })
     end
     else
       let config = config_of ?timeout_s ~metrics ~progress:false () in
       ignore
         (handle
            (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~analysis
               (sources_of files))));
    write_output output (Registry.to_openmetrics metrics)
  in
  let doc =
    "Run one analysis with a live metric registry and dump it in \
     OpenMetrics text format (solver counters and histograms, per-phase GC \
     gauges; per-rule Datalog fact counters with $(b,--datalog)).  The \
     dump is deterministic: no wall-clock values are recorded, so two runs \
     on the same input are byte-identical."
  in
  Cmd.v
    (Cmd.info "metrics" ~doc ~exits:common_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ output_arg $ datalog_arg)

let heapmap_cmd =
  let format_arg =
    let doc = "Output format: $(b,text) (table) or $(b,json)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let output_arg =
    let doc = "Write the census to $(docv) ($(b,-) = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let compare_arg =
    let doc =
      "Gate the census against a blessed census JSON (as written by \
       $(b,--format json)): exit 4 if any component's retained words grew \
       by more than $(b,--tol) percent."
    in
    Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"FILE" ~doc)
  in
  let tol_arg =
    let doc = "Per-component growth tolerance for $(b,--compare), percent." in
    Arg.(
      value
      & opt float Snapshot.default_thresholds.Snapshot.heap_component_tol_pct
      & info [ "tol" ] ~docv:"PCT" ~doc)
  in
  let datalog_arg =
    let doc =
      "Census the reference Datalog implementation's relations instead of \
       the native solver's supergraph."
    in
    Arg.(value & flag & info [ "datalog" ] ~doc)
  in
  let run files analysis no_stdlib timeout_s datalog format output
      compare_file tol =
    let census =
      if datalog then begin
        let program =
          handle (Driver.load_program ~stdlib:(not no_stdlib) (sources_of files))
        in
        let strategy = handle (Driver.strategy_of_name program analysis) in
        let budget = Pta_obs.Budget.of_seconds_opt timeout_s in
        match Pta_refimpl.Refimpl.run ~budget program strategy with
        | r -> Pta_refimpl.Refimpl.census r
        | exception Pta_obs.Budget.Exhausted abort ->
          Driver.report_and_exit (Driver.Timed_out { analysis; abort })
      end
      else
        let config = config_of ?timeout_s ~progress:false () in
        let _program, r =
          handle
            (Driver.load_and_run ~stdlib:(not no_stdlib) ~config ~analysis
               (sources_of files))
        in
        Solver.census r.Driver.solver
    in
    (match format with
    | `Text -> write_output output (Format.asprintf "%a" Census.pp census)
    | `Json ->
      write_output output
        (Json.to_string (stamp_build (Census.to_json census)) ^ "\n"));
    match compare_file with
    | None -> ()
    | Some path -> (
      let contents =
        match open_in_bin path with
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        | exception Sys_error msg ->
          Printf.eprintf "pointsto: cannot read %s: %s\n" path msg;
          exit 2
      in
      let baseline =
        match Result.bind (Json.of_string contents) Census.of_json with
        | Ok c -> c
        | Error e ->
          Printf.eprintf "pointsto: %s: %s\n" path e;
          exit 2
      in
      match
        Census.compare_components ~tol_pct:tol
          ~baseline:baseline.Census.components
          ~current:census.Census.components
      with
      | [] ->
        Printf.eprintf "heapmap: all components within %.1f%% of %s\n" tol path
      | breaches ->
        List.iter
          (fun (b : Census.breach) ->
            Printf.eprintf
              "heapmap: %s retained %d words, baseline %d (+%.1f%% > %.1f%%)\n"
              b.Census.b_name b.Census.b_cur_words b.Census.b_base_words
              b.Census.b_pct tol)
          breaches;
        exit 4)
  in
  let heapmap_exits =
    Cmd.Exit.info 4
      ~doc:"($(b,--compare)) when any component breaches the tolerance."
    :: common_exits
  in
  let doc =
    "Run one analysis and print the reachable-heap census: live words \
     attributed to named solver components (points-to sets, edge lists, \
     context tables, ...), with retained vs unshared words and the \
     structural-sharing factor per component, plus the points-to set \
     population histogram."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The census runs after the solve, walks the reachable heap with \
         physical-identity awareness (a block shared between components is \
         charged once, to the first component that reaches it), and is \
         byte-deterministic: two runs on the same input produce \
         cmp-identical JSON.  $(b,--compare) gates the fresh census \
         against a blessed one, flagging components whose retained words \
         grew beyond the tolerance — the one-shot form of the per-component \
         check that $(b,bench trend --check) applies over the ledger.";
    ]
  in
  Cmd.v
    (Cmd.info "heapmap" ~doc ~man ~exits:heapmap_exits)
    Term.(
      const run $ files_arg $ analysis_arg $ no_stdlib_arg $ timeout_arg
      $ datalog_arg $ format_arg $ output_arg $ compare_arg $ tol_arg)

(* ------------------------------------------------------------------ *)
(* bench: the perf-trajectory commands                                  *)
(* ------------------------------------------------------------------ *)

(* The bench commands report timeouts as table entries and regressions
   as verdicts, so they have their own exit vocabulary. *)
let bench_exits =
  [
    Cmd.Exit.info 1
      ~doc:"($(b,bisect)) when the latest ledger record is within threshold \
            — there is nothing to bisect.";
    Cmd.Exit.info 2
      ~doc:"on a missing, corrupt or unsupported ledger or snapshot, an \
            unknown benchmark or analysis, or a malformed argument.";
    Cmd.Exit.info 4
      ~doc:"($(b,compare)) when any cell regressed against the baseline; \
            ($(b,trend --check)) when any cell of the latest record is \
            flagged as a regression.";
  ]
  @ Cmd.Exit.defaults

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "pointsto: %s\n" msg;
      exit 2)
    fmt

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error msg -> fail_usage "cannot read %s: %s" path msg

let load_ledger path =
  match Hledger.load path with Ok rs -> rs | Error e -> fail_usage "%s" e

let load_snapshot path =
  match Snapshot.of_string (read_file path) with
  | Ok s -> s
  | Error e -> fail_usage "%s: %s" path e

let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ledger_arg =
  let doc = "The bench-history ledger (JSONL, one record per line)." in
  Arg.(
    value & opt string "bench/history.jsonl"
    & info [ "ledger" ] ~docv:"FILE" ~doc)

(* Detection parameters, shared by compare, trend and bisect. *)
let window_arg =
  let doc = "Sliding-window length: finished observations per cell." in
  Arg.(value & opt int Htrend.default_params.Htrend.window
       & info [ "window" ] ~docv:"N" ~doc)

let min_points_arg =
  let doc = "Observations required before the changepoint test fires." in
  Arg.(value & opt int Htrend.default_params.Htrend.min_points
       & info [ "min-points" ] ~docv:"N" ~doc)

let mad_k_arg =
  let doc = "MAD multiplier: flag values above median + $(docv)*1.4826*MAD." in
  Arg.(value & opt float Htrend.default_params.Htrend.mad_k
       & info [ "mad-k" ] ~docv:"K" ~doc)

let time_tol_arg =
  let doc =
    "Time tolerance, percent over the baseline cell ($(b,compare)) or the \
     window median ($(b,trend), $(b,bisect))."
  in
  Arg.(value & opt float Snapshot.default_thresholds.Snapshot.time_tol_pct
       & info [ "time-tol" ] ~docv:"PCT" ~doc)

let heap_tol_arg =
  let doc =
    "Peak-heap tolerance, percent over the baseline cell or the window \
     median."
  in
  Arg.(value & opt float Snapshot.default_thresholds.Snapshot.heap_tol_pct
       & info [ "heap-tol" ] ~docv:"PCT" ~doc)

let heap_component_tol_arg =
  let doc =
    "Per-census-component retained-heap tolerance, percent over the \
     baseline cell or the window median."
  in
  Arg.(
    value
    & opt float Snapshot.default_thresholds.Snapshot.heap_component_tol_pct
    & info [ "heap-component-tol" ] ~docv:"PCT" ~doc)

let min_time_arg =
  let doc =
    "Noise floor: skip the time check when the baseline cell or the window \
     median is below $(docv) seconds."
  in
  Arg.(value & opt float Snapshot.default_thresholds.Snapshot.min_time_s
       & info [ "min-time" ] ~docv:"SECONDS" ~doc)

let thresholds_term =
  let make time_tol_pct heap_tol_pct heap_component_tol_pct min_time_s =
    { Snapshot.time_tol_pct; heap_tol_pct; heap_component_tol_pct; min_time_s }
  in
  Term.(
    const make $ time_tol_arg $ heap_tol_arg $ heap_component_tol_arg
    $ min_time_arg)

let params_term =
  let make window min_points mad_k tolerances =
    { Htrend.window; min_points; mad_k; tolerances }
  in
  Term.(
    const make $ window_arg $ min_points_arg $ mad_k_arg $ thresholds_term)

let history_append_cmd =
  let snapshot_arg =
    let doc =
      "The benchmark snapshot to append (e.g. $(b,BENCH_table1.json), or the \
       file written by $(b,bench compare --snapshot-out))."
    in
    Arg.(
      required & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let note_arg =
    let doc = "Free-form provenance note stored in the record (e.g. $(b,ci))." in
    Arg.(value & opt (some string) None & info [ "note" ] ~docv:"TEXT" ~doc)
  in
  let timestamp_arg =
    let doc = "Record timestamp as unix seconds (omitted = no timestamp)." in
    Arg.(value & opt (some float) None & info [ "timestamp" ] ~docv:"SECONDS" ~doc)
  in
  let now_arg =
    let doc = "Stamp the record with the current time." in
    Arg.(value & flag & info [ "now" ] ~doc)
  in
  let run ledger snapshot note timestamp now =
    let snap = load_snapshot snapshot in
    let timestamp = if now then Some (Unix.time ()) else timestamp in
    let record =
      match
        Hrecord.of_snapshot ~seq:0 ?timestamp ?note
          ~host:(Hrecord.current_host ()) snap
      with
      | Ok r -> r
      | Error e -> fail_usage "%s: %s" snapshot e
    in
    match Hledger.append ~path:ledger record with
    | Ok r -> print_endline (Hledger.describe r)
    | Error e -> fail_usage "%s" e
  in
  let doc =
    "Validate the ledger and append one record derived from a benchmark \
     snapshot.  The record's build stamp comes from the snapshot's own \
     $(b,pointsto) field — the binary that measured — and is mandatory; the \
     host fingerprint honours $(b,PTA_BENCH_HOST)."
  in
  Cmd.v
    (Cmd.info "append" ~doc ~exits:bench_exits)
    Term.(
      const run $ ledger_arg $ snapshot_arg $ note_arg $ timestamp_arg
      $ now_arg)

let history_list_cmd =
  let run ledger =
    List.iter (fun r -> print_endline (Hledger.describe r)) (load_ledger ledger)
  in
  let doc = "List the ledger, one line per record (seq, build, host, cells)." in
  Cmd.v (Cmd.info "list" ~doc ~exits:bench_exits) Term.(const run $ ledger_arg)

let history_show_cmd =
  let seq_arg =
    let doc = "Record to show (default: the latest)." in
    Arg.(value & pos 0 (some int) None & info [] ~docv:"SEQ" ~doc)
  in
  let run ledger seq =
    let records = load_ledger ledger in
    let record =
      match seq with
      | None -> (
        match List.rev records with
        | r :: _ -> r
        | [] -> fail_usage "%s: empty ledger" ledger)
      | Some s -> (
        match List.find_opt (fun r -> r.Hrecord.seq = s) records with
        | Some r -> r
        | None -> fail_usage "%s: no record with seq %d" ledger s)
    in
    print_endline (Json.to_string (Hrecord.to_json record))
  in
  let doc = "Print one ledger record as JSON." in
  Cmd.v
    (Cmd.info "show" ~doc ~exits:bench_exits)
    Term.(const run $ ledger_arg $ seq_arg)

let history_cmd =
  let doc = "Inspect and append to the bench-history ledger." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The ledger is an append-only JSONL file (one JSON record per line, \
         schema-versioned) accumulating one record per benchmark run: build \
         stamp (commit, dirty flag, OCaml version, dune profile), host \
         fingerprint, and per-cell wall time, iterations, supergraph nodes, \
         peak heap and a solve-time histogram.  Loading is strict — a \
         corrupt line or a record from an unsupported schema refuses the \
         whole ledger rather than silently skipping.";
    ]
  in
  Cmd.group
    (Cmd.info "history" ~doc ~man ~exits:bench_exits)
    [ history_append_cmd; history_list_cmd; history_show_cmd ]

let trend_cmd =
  let out_arg =
    let doc =
      "Write the static trend report (index.html plus one SVG sparkline per \
       cell and metric) into $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let check_arg =
    let doc =
      "Gate the latest record: flag any cell whose time or peak heap \
       crosses its sliding-window median + MAD threshold (or that newly \
       timed out), and exit 4 if anything is flagged."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run ledger out check params =
    let records = load_ledger ledger in
    let page = Htrend.page ~params ~ledger records in
    (match out with
    | None -> ()
    | Some dir ->
      ensure_dir dir;
      let files = Trend_page.render page in
      List.iter
        (fun (name, contents) ->
          write_file (Filename.concat dir name) contents)
        files;
      Printf.printf "wrote %d files to %s\n" (List.length files) dir);
    print_endline page.Trend_page.p_subtitle;
    if check then
      match Htrend.check_latest ~params records with
      | Error e -> fail_usage "%s" e
      | Ok [] -> print_endline "trend check: latest record within thresholds"
      | Ok flags ->
        List.iter
          (fun f -> Format.printf "FLAGGED %a@." Htrend.pp_flag f)
          flags;
        Printf.printf "trend check: %d flag(s) on the latest record\n"
          (List.length flags);
        exit 4
  in
  let doc =
    "Render the perf-trend report from the ledger and optionally gate the \
     latest record against its own history."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The report is byte-deterministic: rendering the same ledger twice \
         produces cmp-identical HTML and SVG, so CI can cache and diff the \
         artifact.  The changepoint check is robust (median + MAD over a \
         sliding window of finished observations) with the same tolerance \
         floors as $(b,bench compare); cells with fewer \
         than $(b,--min-points) observations pass, so newly added analyses \
         are not flagged while their history accumulates.  A record is \
         judged only against earlier records measured on the same host.";
    ]
  in
  Cmd.v
    (Cmd.info "trend" ~doc ~man ~exits:bench_exits)
    Term.(const run $ ledger_arg $ out_arg $ check_arg $ params_term)

let bisect_cmd =
  let cell_arg =
    let doc = "The cell to bisect, as $(i,BENCHMARK)/$(i,ANALYSIS)." in
    Arg.(
      required & opt (some string) None & info [ "cell" ] ~docv:"B/A" ~doc)
  in
  let metric_arg =
    let doc =
      "Metric to bisect: $(b,time), $(b,heap), or \
       $(b,heap:)$(i,COMPONENT) for one census component's retained words."
    in
    let metric_conv =
      Arg.conv
        ( (fun s ->
            match Htrend.metric_of_string s with
            | Ok m -> Ok m
            | Error e -> Error (`Msg e)),
          fun ppf m -> Format.pp_print_string ppf (Htrend.metric_name m) )
    in
    Arg.(value & opt metric_conv Htrend.Time & info [ "metric" ] ~docv:"METRIC" ~doc)
  in
  let git_arg =
    let doc =
      "Also emit a $(b,git bisect run) script spanning the last-good and \
       first-bad commits, re-measuring just this cell per step."
    in
    Arg.(value & flag & info [ "git" ] ~doc)
  in
  let script_out_arg =
    let doc = "Where to write the git-bisect script ($(b,-) = stdout)." in
    Arg.(value & opt string "-" & info [ "script-out" ] ~docv:"FILE" ~doc)
  in
  let baseline_out_arg =
    let doc =
      "Where to write the single-cell baseline snapshot the script compares \
       against (reconstructed from the last-good record)."
    in
    Arg.(
      value
      & opt string "BENCH_bisect_baseline.json"
      & info [ "baseline-out" ] ~docv:"FILE" ~doc)
  in
  let run ledger cell metric git script_out baseline_out params =
    let benchmark, analysis =
      match String.index_opt cell '/' with
      | Some i ->
        ( String.sub cell 0 i,
          String.sub cell (i + 1) (String.length cell - i - 1) )
      | None -> fail_usage "--cell expects BENCHMARK/ANALYSIS, got %S" cell
    in
    let records = load_ledger ledger in
    match Hbisect.run ~params ~metric ~benchmark ~analysis records with
    | Error e -> fail_usage "%s" e
    | Ok None ->
      Printf.printf
        "%s/%s: latest record is within the anchor threshold; nothing to \
         bisect\n"
        benchmark analysis;
      exit 1
    | Ok (Some o) ->
      Format.printf "%a@." Hbisect.pp_outcome o;
      if git then begin
        let good =
          match o.Hbisect.last_good with
          | Some g -> g
          | None -> fail_usage "no good record to baseline the git run on"
        in
        let snap =
          match Hbisect.baseline_snapshot good ~benchmark ~analysis with
          | Ok s -> s
          | Error e -> fail_usage "%s" e
        in
        match Hbisect.git_script o ~ledger ~baseline_file:baseline_out with
        | Error e -> fail_usage "%s" e
        | Ok script ->
          write_file baseline_out (Json.to_string (Snapshot.to_json snap));
          write_output script_out script;
          if not (String.equal script_out "-") then
            Printf.printf "wrote %s and %s; inspect, then run the script\n"
              script_out baseline_out
      end
  in
  let doc =
    "Find the first ledger record at which a cell crossed its regression \
     threshold, and optionally hand off to $(b,git bisect)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The anchor baseline is the median + MAD threshold of the cell's \
         first $(b,--window) finished observations; a record is bad when \
         its value exceeds that threshold (or it times out).  Against a \
         step regression the predicate is monotone, so binary search finds \
         the boundary in O(log n) probes — each probe is reported, so a \
         noisy history shows up in the log instead of being silently \
         misattributed.  When the ledger is sparse (many commits between \
         the last-good and first-bad records), $(b,--git) narrows further: \
         it emits a $(b,git bisect run) recipe re-measuring just this cell \
         per candidate commit against a baseline snapshot reconstructed \
         from the last-good record.  The script is written for inspection, \
         never executed by this command.";
    ]
  in
  Cmd.v
    (Cmd.info "bisect" ~doc ~man ~exits:bench_exits)
    Term.(
      const run $ ledger_arg $ cell_arg $ metric_arg $ git_arg
      $ script_out_arg $ baseline_out_arg $ params_term)

(* The evaluation grids.  Every cell runs in its own [bench cell]
   process (see [Pta_bench.Grid]). *)

let grid_term =
  let timeout =
    Arg.(
      value & opt float 90.
      & timeout_info
          "Per-cell analysis cutoff; a cell that exceeds it prints as \
           $(b,-), like the paper's dashes.")
  in
  Term.(const (fun timeout_s -> Grid.create ~timeout_s) $ timeout)

let benchmarks_arg =
  let doc = "Benchmark profiles to run (default: the command's own grid)." in
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "benchmarks" ] ~docv:"NAME,..." ~doc)

let analyses_arg =
  let doc = "Analyses to run (default: the command's own grid)." in
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "analyses" ] ~docv:"STRATEGY,..." ~doc)

let profiles_of ~default = function
  | None -> default
  | Some names ->
    List.map
      (fun n ->
        match Profile.by_name n with
        | Some p -> p
        | None -> fail_usage "unknown benchmark %S" n)
      names

let analyses_of ~default = function
  | None -> default
  | Some names ->
    List.iter
      (fun n ->
        if Result.is_error (Strategies.resolve n) then
          fail_usage "unknown analysis %S" n)
      names;
    names

let grid_cmd name doc term =
  Cmd.v (Cmd.info name ~doc ~exits:bench_exits) term

(* A grid over [--benchmarks] x [--analyses], with the command's own
   defaults. *)
let selection_cmd name doc ~benchmarks ~analyses f =
  grid_cmd name doc
    Term.(
      const (fun g bs xs ->
          f g
            ~benchmarks:(profiles_of ~default:benchmarks bs)
            ~analyses:(analyses_of ~default:analyses xs))
      $ grid_term $ benchmarks_arg $ analyses_arg)

let benchmarks_cmd name doc f =
  grid_cmd name doc
    Term.(
      const (fun g bs -> f g ~benchmarks:(profiles_of ~default:Profile.dacapo bs))
      $ grid_term $ benchmarks_arg)

let table1_cmd =
  selection_cmd "table1"
    "Table 1: precision metrics, time and context-sensitive var-points-to \
     for every benchmark x analysis.  Writes table1.csv, table1_stats.json \
     and the BENCH_table1.json snapshot to the working directory."
    ~benchmarks:Profile.dacapo ~analyses:Grid.table1_analyses Grid.table1

let propbench_cmd =
  selection_cmd "propbench"
    "The propagation grid: the cycle-heavy cyclic profile under a small \
     analysis spread, isolating the solver's propagation core.  Writes the \
     BENCH_prop.json snapshot to the working directory."
    ~benchmarks:[ Option.get (Profile.by_name "cyclic") ]
    ~analyses:Grid.prop_analyses Grid.propbench

let figure3_cmd =
  benchmarks_cmd "figure3"
    "Figure 3: an ASCII scatter of time against may-fail casts per benchmark."
    Grid.figure3

let summary_cmd =
  benchmarks_cmd "summary"
    "The paper's headline ratios, as geometric means over the benchmarks."
    Grid.summary

let fixed_cmd name doc f = grid_cmd name doc Term.(const f $ grid_term)

let ablation_cmd =
  fixed_cmd "ablation"
    "Section 3's dismissed context combinations, and a field-based heap, on \
     antlr, luindex and pmd."
    Grid.ablation

let futurework_cmd =
  fixed_cmd "futurework"
    "Section 6's adaptive context constructors on antlr, jython and lusearch."
    Grid.futurework

let scaling_cmd =
  fixed_cmd "scaling" "Analysis cost against program size (luindex x0.5-2)."
    Grid.scaling

let micro_cmd =
  grid_cmd "micro" "Bechamel micro-benchmarks of the solver's building blocks."
    Term.(const Grid.micro $ const ())

let all_cmd =
  benchmarks_cmd "all"
    "table1, figure3, summary, ablation, futurework, scaling and micro, \
     sharing their cells."
    (fun g ~benchmarks ->
      Grid.table1 g ~benchmarks ~analyses:Grid.table1_analyses;
      Grid.figure3 g ~benchmarks;
      Grid.summary g ~benchmarks;
      Grid.ablation g;
      Grid.futurework g;
      Grid.scaling g;
      Grid.micro ())

let compare_bench_cmd =
  let baseline_arg =
    let doc = "The committed snapshot to gate against." in
    Arg.(
      required & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let delta_md_arg =
    let doc = "Also write the per-cell delta table as Markdown to $(docv)." in
    Arg.(value & opt (some string) None & info [ "delta-md" ] ~docv:"FILE" ~doc)
  in
  let snapshot_out_arg =
    let doc =
      "Write the measured snapshot to $(docv) before the verdict, so a \
       regressed run can still be archived with $(b,history append)."
    in
    Arg.(
      value & opt (some string) None & info [ "snapshot-out" ] ~docv:"FILE" ~doc)
  in
  let run g baseline_file bs xs thresholds delta_md snapshot_out =
    let baseline = load_snapshot baseline_file in
    (* By default, the baseline's own benchmarks and analyses, in
       first-appearance order. *)
    let or_baseline f = function
      | Some names -> Some names
      | None ->
        Some
          (List.rev
             (List.fold_left
                (fun acc c -> if List.mem (f c) acc then acc else f c :: acc)
                [] baseline.Snapshot.cells))
    in
    let failed =
      Grid.compare g ~baseline_name:baseline_file ~baseline
        ~benchmarks:
          (profiles_of ~default:[]
             (or_baseline (fun c -> c.Snapshot.benchmark) bs))
        ~analyses:
          (analyses_of ~default:[]
             (or_baseline (fun c -> c.Snapshot.analysis) xs))
        ~thresholds ~delta_md ~snapshot_out
    in
    if failed then exit 4
  in
  grid_cmd "compare"
    "Re-measure the baseline's cells (or the $(b,--benchmarks) x \
     $(b,--analyses) subset) and gate them against it: exit 4 when a cell \
     is slower, fatter or newly timed out beyond the tolerances."
    Term.(
      const run $ grid_term $ baseline_arg $ benchmarks_arg $ analyses_arg
      $ thresholds_term $ delta_md_arg $ snapshot_out_arg)

let cell_cmd =
  grid_cmd "cell"
    "Internal: measure one grid cell for the grid commands, reading the \
     request from stdin and writing the outcome to stdout."
    Term.(const Grid.child $ const ())

let bench_cmd =
  let doc =
    "The paper's evaluation grids, the snapshot regression gate, and the \
     perf trajectory over time: the bench-history ledger, trend report and \
     auto-bisect."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every grid cell runs in a fresh process, so its peak heap does not \
         depend on the cells before it.  Workflow: $(b,table1) or \
         $(b,propbench) writes a snapshot, and $(b,compare --snapshot-out) \
         writes one while gating; $(b,history append) archives a snapshot \
         as one ledger record; $(b,trend) renders sparklines over the \
         accumulated records and $(b,trend --check) gates the latest one \
         against its own history; when a regression is flagged, \
         $(b,bisect) locates the first bad record and can hand off to \
         $(b,git bisect) to narrow it to a commit.";
    ]
  in
  Cmd.group
    (Cmd.info "bench" ~doc ~man ~exits:bench_exits)
    [
      table1_cmd; figure3_cmd; summary_cmd; ablation_cmd; futurework_cmd;
      scaling_cmd; propbench_cmd; micro_cmd; all_cmd; compare_bench_cmd;
      cell_cmd; history_cmd; trend_cmd; bisect_cmd;
    ]

let version_cmd =
  let json_arg =
    let doc = "Emit the stamp as a JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run json =
    if json then print_endline (Json.to_string (Version.to_json ()))
    else print_endline (Version.to_string ())
  in
  let doc =
    "Print the build stamp: semantic version, git commit, OCaml compiler \
     version, and dune profile.  The same stamp is embedded in \
     $(b,--stats-json) documents and benchmark snapshots."
  in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ json_arg)

let main_cmd =
  let doc = "Hybrid context-sensitive points-to analysis for MJ programs" in
  let info = Cmd.info "pointsto" ~version:"1.0.0" ~doc ~exits:common_exits in
  Cmd.group info
    [
      analyze_cmd; compare_cmd; check_cmd; taint_cmd; profile_cmd; query_cmd;
      why_cmd; casts_cmd; exceptions_cmd; callgraph_cmd; stats_cmd;
      dump_ir_cmd; decompile_cmd; gen_cmd; strategies_cmd; metrics_cmd;
      heapmap_cmd; bench_cmd; version_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
