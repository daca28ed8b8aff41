(* The pointsto command-line driver.

   Subcommands (17):
     analyze    — run one analysis on MJ sources, print metrics
     compare    — run several analyses, print a metric table
     check      — run the points-to-powered checkers, report diagnostics
     taint      — source-to-sink taint flows, per strategy or in detail
     profile    — one analysis under the tracer: its hot-spot table
     query      — points-to set of one variable
     why        — provenance chains of one variable's points-to set
     exceptions — exceptions that may escape each method
     callgraph  — context-insensitive call graph
     stats      — where the context-sensitive facts come from
     dump-ir    — parse, lower and pretty-print the IR
     decompile  — parse, lower and print back equivalent MJ source
     gen        — emit a synthetic benchmark's MJ source
     strategies — list available analyses
     heapmap    — run one analysis, print the reachable-heap census
                  (per-component retained/unshared words, set-sharing
                  factor)
     bench      — the paper's evaluation grids (table1, figure3, summary,
                  ablation, scaling, propbench, all)
                  and the snapshot regression gate (compare)
     version    — print the build stamp (commit, OCaml version, profile)

   All subcommands share the exit-code contract enforced by
   [Pta_driver.Driver]: 1 = MJ parse/semantic error, 2 = unknown
   analysis (or benchmark), 3 = analysis timeout.  [check] adds
   4 = at least one error-severity diagnostic.  Every subcommand that
   solves loads, solves and emits through [Session], so a flag means the
   same thing wherever it appears. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Metrics = Pta_clients.Metrics
module Strategies = Pta_context.Strategies
module Driver = Pta_driver.Driver
module Json = Pta_obs.Json
module Trace = Pta_obs.Trace
module Census = Pta_obs.Census
module Version = Pta_version.Version
module Snapshot = Pta_report.Bench_snapshot
module Grid = Pta_bench.Grid
module Profile = Pta_workloads.Profile
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let analysis_arg =
  let doc =
    "Context-sensitivity strategy: a preset name such as $(b,S-2obj+H) (see \
     $(b,pointsto strategies) for the list) or a strategy-algebra expression \
     such as $(b,selective(obj 2 1)), $(b,uniform(type 2 1)), \
     $(b,cs(insens)) or $(b,per_method(\"List*\": obj 2 1, obj 1))."
  in
  Arg.(
    value
    & opt string "S-2obj+H"
    & info [ "a"; "analysis"; "strategy" ] ~docv:"STRATEGY" ~doc)

(* The flag sets of the analysing subcommands (see [Session]). *)
let observed files =
  Session.(
    flags files ~stats_json:stats_json_arg ~trace:trace_arg
      ~progress:progress_arg)

let observed_flags = observed Session.files_arg

let traced_flags =
  Session.(flags files_arg ~stats_json:absent ~trace:trace_arg ~progress:off)

let plain_flags files =
  Session.(flags files ~stats_json:absent ~trace:absent ~progress:off)

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

let write_output = Session.write_output

(* A usage error: a message on stderr, exit 2. *)
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

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

(* [query] and [why] name one variable by --method and --var. *)
let meth_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "method" ] ~docv:"Class.meth/arity" ~doc:"Qualified method name.")

let var_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "var" ] ~docv:"NAME" ~doc:"Local variable name.")

let resolve_meth_var program meth_name var_name =
  let usage () =
    Printf.eprintf "--method expects Class.meth/arity\n";
    exit 2
  in
  let cls, rest =
    match String.index_opt meth_name '.' with
    | Some i ->
      ( String.sub meth_name 0 i,
        String.sub meth_name (i + 1) (String.length meth_name - i - 1) )
    | None -> usage ()
  in
  let mname, arity =
    match String.index_opt rest '/' with
    | Some i -> (
      match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
      | Some arity -> (String.sub rest 0 i, arity)
      | None -> usage ())
    | None -> (rest, 0)
  in
  let meth =
    match Ir.Program.find_meth program cls mname arity with
    | Some m -> m
    | None ->
      Printf.eprintf "no method %s.%s/%d\n" cls mname arity;
      exit 2
  in
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

let analyze_cmd =
  let run flags analysis =
    Session.run Native flags ~analysis (fun _ budget r ->
        let metrics = Metrics.compute ~budget r.Driver.solver in
        fun ppf ->
          Format.fprintf ppf "analysis: %s (%s)@." analysis
            r.Driver.strategy.Pta_context.Strategy.description;
          Format.fprintf ppf "%a@." Metrics.pp metrics;
          Format.fprintf ppf "elapsed: %.3fs@." r.Driver.wall_time_s)
  in
  let doc = "Run one points-to analysis and print its metrics." in
  Cmd.v
    (Cmd.info "analyze" ~doc ~exits:common_exits)
    Term.(const run $ observed_flags $ analysis_arg)

let compare_cmd =
  let analyses_arg =
    let doc = "Comma-separated analyses to compare." in
    Arg.(
      value
      & opt (list string) [ "1call"; "1obj"; "SB-1obj"; "2obj+H"; "S-2obj+H"; "2type+H" ]
      & info [ "analyses" ] ~docv:"NAMES" ~doc)
  in
  let run flags analyses =
    (* One load and one trace for every analysis, back to back. *)
    let s = Session.load flags in
    let rows =
      List.map
        (fun name ->
          let row =
            Session.attempt s Native name (fun budget r ->
                let m = Metrics.compute ~budget r.Driver.solver in
                [
                  Printf.sprintf "%.2f" m.Metrics.avg_objs_per_var;
                  string_of_int m.Metrics.call_graph_edges;
                  Printf.sprintf "%d/%d" m.Metrics.poly_vcalls m.Metrics.total_vcalls;
                  Printf.sprintf "%d/%d" m.Metrics.may_fail_casts m.Metrics.total_casts;
                  Printf.sprintf "%.3f" r.Driver.wall_time_s;
                  string_of_int m.Metrics.sensitive_vpt;
                ])
          in
          name :: Option.value row ~default:(List.init 6 (fun _ -> "-")))
        analyses
    in
    Session.finish ~several:true s (fun ppf ->
        let table =
          Pta_report.Table.create
            ~headers:
              [ "analysis"; "avg objs"; "cg edges"; "poly v-calls"; "may-fail casts";
                "time (s)"; "sensitive vpt" ]
        in
        List.iter (Pta_report.Table.add_row table) rows;
        Format.fprintf ppf "%s@?" (Pta_report.Table.render table))
  in
  let doc = "Compare several analyses on the same program." in
  Cmd.v
    (Cmd.info "compare" ~doc ~exits:common_exits)
    Term.(const run $ observed_flags $ analyses_arg)

let query_cmd =
  let run flags analysis meth_name var_name =
    Session.run Native flags ~analysis (fun s _ r ->
        let program = s.Session.program in
        let var = resolve_meth_var program meth_name var_name in
        let heaps = Solver.ci_var_points_to r.Driver.solver var in
        fun ppf ->
          Format.fprintf ppf "%s may point to %d allocation site(s):@."
            (Ir.Program.var_qualified_name program var)
            (Intset.cardinal heaps);
          Intset.iter
            (fun h ->
              Format.fprintf ppf "  %s@."
                (Ir.Program.heap_name program (Ir.Heap_id.of_int h)))
            heaps)
  in
  let doc = "Print the points-to set of one variable." in
  Cmd.v
    (Cmd.info "query" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg $ meth_arg $ var_arg)

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
    | Error msg -> fail_usage "%s: %s" path msg)

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
  let run flags analysis checkers taint_spec format output include_stdlib =
    (match checkers with
    | Some [ "list" ] ->
      print_checker_listing ();
      exit 0
    | _ -> ());
    if flags.Session.files = [] then begin
      Printf.eprintf "pointsto: check: no MJ source files given\n";
      exit 124
    end;
    (* The report is not rerouted: a JSON document may not share stdout
       with it. *)
    (let on_stdout = function Some "-" -> true | _ -> false in
     if
       String.equal output "-"
       && (on_stdout flags.Session.stats_json || on_stdout flags.Session.trace_file)
     then
       fail_usage
         "check: the report goes to stdout; send --stats-json and --trace to a \
          file, or the report there with -o FILE");
    let entries = load_taint_spec taint_spec in
    let has_errors =
      Session.run Native flags ~analysis (fun s budget r ->
          let solver = r.Driver.solver in
          let taint =
            Option.map
              (fun entries ->
                let spec = Pta_taint.Spec.compile s.Session.program entries in
                Pta_taint.Taint.summary (Pta_taint.Taint.analyze ~budget solver spec))
              entries
          in
          let results = Pta_checkers.Results.of_solver ?taint solver in
          let diags =
            match Pta_checkers.Checkers.run ?only:checkers ~budget results with
            | diags -> diags
            | exception Pta_checkers.Checkers.Unknown_checker
                { code; suggestions; available } ->
              unknown_checker_exit code suggestions available
          in
          let in_stdlib (d : Pta_checkers.Diagnostic.t) =
            match d.span with
            | Some span ->
              String.equal span.Pta_ir.Srcloc.left.file Pta_mjdk.Mjdk.file_name
            | None -> false
          in
          let diags =
            if include_stdlib then diags
            else List.filter (fun d -> not (in_stdlib d)) diags
          in
          let rendered =
            match format with
            | `Text -> Format.asprintf "%a" Pta_checkers.Diagnostic.pp_report diags
            | `Sarif -> Pta_checkers.Sarif.to_string ~tool_version:"1.0.0" diags
          in
          fun _ppf ->
            write_output output rendered;
            Pta_checkers.Diagnostic.has_errors diags)
    in
    if has_errors then exit 4
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
      const run $ observed files_opt_arg $ analysis_arg $ checkers_arg
      $ taint_spec_arg $ format_arg $ output_arg $ include_stdlib_arg)

let taint_cmd =
  let run flags analysis_opt taint_spec =
    let entries =
      Option.value (load_taint_spec taint_spec) ~default:Pta_taint.Spec.default
    in
    match analysis_opt with
    | Some analysis ->
      (* One strategy: every flow, with its provenance chain. *)
      Session.run Native flags ~analysis (fun s budget r ->
          let program = s.Session.program in
          let spec = Pta_taint.Spec.compile program entries in
          let taint = Pta_taint.Taint.analyze ~budget r.Driver.solver spec in
          let flows = Pta_taint.Taint.flows taint in
          let chains = List.map (Pta_taint.Taint.explain_flow taint) flows in
          fun ppf ->
            Format.fprintf ppf "%d source(s), %d sink method(s): %d flow(s) under %s@."
              (Pta_taint.Spec.n_sources spec)
              (List.length (Pta_taint.Spec.sink_meths spec))
              (List.length flows) analysis;
            List.iter2
              (fun (f : Pta_taint.Taint.flow) chain ->
                Format.fprintf ppf "@.FLOW %s -> argument %d of %s@."
                  (Pta_taint.Spec.label_name spec f.f_label)
                  f.f_pos
                  (Ir.Program.invo_name program f.f_invo);
                List.iter (fun line -> Format.fprintf ppf "    %s@." line) chain)
              flows chains)
    | None ->
      (* The per-strategy precision column: flow counts across every
         preset, so hybrids' spurious-flow advantage is visible. *)
      let s = Session.load flags in
      let spec = Pta_taint.Spec.compile s.Session.program entries in
      let rows =
        List.map
          (fun name ->
            ( name,
              Session.attempt s Native name (fun budget r ->
                  Pta_taint.Taint.n_flows
                    (Pta_taint.Taint.analyze ~budget r.Driver.solver spec)) ))
          Strategies.names
      in
      Session.finish ~several:true s (fun ppf ->
          Format.fprintf ppf "%d source(s), %d sink method(s)@."
            (Pta_taint.Spec.n_sources spec)
            (List.length (Pta_taint.Spec.sink_meths spec));
          List.iter
            (function
              | name, Some n -> Format.fprintf ppf "%-12s %d flow(s)@." name n
              | name, None -> Format.fprintf ppf "%-12s -@." name)
            rows)
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
    Term.(const run $ traced_flags $ analysis_opt_arg $ taint_spec_arg)

let callgraph_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot on stdout.")
  in
  let run flags analysis dot =
    Session.run Native flags ~analysis (fun s _ r ->
        let program = s.Session.program in
        (* Method-level edges: caller method -> callee method. *)
        let edges = Hashtbl.create 256 in
        Ir.Program.iter_invos program (fun invo info ->
            Ir.Meth_id.Set.iter
              (fun target ->
                Hashtbl.replace edges
                  ( Ir.Program.meth_qualified_name program info.Ir.invo_owner,
                    Ir.Program.meth_qualified_name program target )
                  ())
              (Solver.invo_targets r.Driver.solver invo));
        let sorted =
          Hashtbl.fold (fun e () acc -> e :: acc) edges [] |> List.sort compare
        in
        fun ppf ->
          if dot then begin
            Format.fprintf ppf "digraph callgraph {@.";
            List.iter
              (fun (src, dst) -> Format.fprintf ppf "  %S -> %S;@." src dst)
              sorted;
            Format.fprintf ppf "}@."
          end
          else begin
            List.iter
              (fun (src, dst) -> Format.fprintf ppf "%s -> %s@." src dst)
              sorted;
            Format.fprintf ppf "%d method-level call edges@." (List.length sorted)
          end)
  in
  let doc = "Print the computed (context-insensitive) call graph." in
  Cmd.v
    (Cmd.info "callgraph" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg $ dot_arg)

let why_cmd =
  let run flags analysis meth_name var_name =
    Session.run Native flags ~analysis (fun s budget r ->
        let program = s.Session.program in
        let var = resolve_meth_var program meth_name var_name in
        let heaps = Solver.ci_var_points_to r.Driver.solver var in
        (* Every chain from one provenance session. *)
        let chains =
          if Intset.is_empty heaps then []
          else
            let session = Pta_clients.Provenance.create ~budget r.Driver.solver in
            List.map
              (fun h ->
                let heap = Ir.Heap_id.of_int h in
                (heap, Pta_clients.Provenance.explain session ~var ~heap))
              (Intset.elements heaps)
        in
        fun ppf ->
          if chains = [] then
            Format.fprintf ppf "%s points to nothing under %s@."
              (Ir.Program.var_qualified_name program var)
              analysis;
          List.iter
            (fun (heap, chain) ->
              Format.fprintf ppf "@[<v>%s may point to %s because:@,"
                (Ir.Program.var_qualified_name program var)
                (Ir.Program.heap_name program heap);
              (match chain with
              | Some chain -> Pta_clients.Provenance.pp_chain ppf chain
              | None -> Format.fprintf ppf "  (no witness chain found)@,");
              Format.fprintf ppf "@]@.")
            chains)
  in
  let doc = "Explain why a variable may point to each of its allocation sites." in
  Cmd.v
    (Cmd.info "why" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg $ meth_arg $ var_arg)

let stats_cmd =
  let run flags analysis =
    Session.run Native flags ~analysis (fun s _ r ->
        let stats = Pta_clients.Stats.compute r.Driver.solver in
        fun ppf ->
          Format.fprintf ppf "%a@." (Pta_clients.Stats.pp s.Session.program) stats)
  in
  let doc =
    "Show where the context-sensitive facts come from (heaviest methods, \
     fattest variables, context histogram)."
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg)

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
  let run flags analysis top datalog sort =
    (* Always trace — the profile is read off the sink's aggregates —
       but only write the event timeline when --trace asks for it.  GC
       accounting is on so the alloc column (and the alloc sort) have
       something to show. *)
    let trace = Trace.create ~alloc:true () in
    let cat, title, engine =
      if datalog then ("rule", "rule", "reference Datalog engine")
      else ("solver", "edge kind", "native solver")
    in
    let report (s : Session.t) _budget _result =
      let wall_time_s = Pta_obs.Clock.elapsed_s s.Session.clock in
      let rows =
        List.filter_map
          (fun (st : Trace.stat) ->
            if String.equal st.stat_cat cat then
              Some
                {
                  Pta_report.Hotspots.name = st.stat_name;
                  events = st.events;
                  delta = st.delta;
                  seconds = st.seconds;
                  alloc_words = Trace.stat_alloc_words st;
                }
            else None)
          (Trace.profile trace)
      in
      fun ppf ->
        Format.fprintf ppf "analysis: %s (%s)@." analysis engine;
        Format.fprintf ppf "%s" (Pta_report.Hotspots.render ~top ~sort ~title rows);
        Format.fprintf ppf "elapsed: %.3fs@." wall_time_s
    in
    if datalog then Session.run ~trace Datalog flags ~analysis report
    else Session.run ~trace Native flags ~analysis report
  in
  let doc =
    "Run one analysis under the tracer and print its hot-spot table \
     (per-Datalog-rule with $(b,--datalog), per-edge-kind otherwise), with \
     cumulative wall time and allocation per row."
  in
  Cmd.v
    (Cmd.info "profile" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg $ top_arg $ datalog_arg $ sort_arg)

let load_program_cmd name ~doc print =
  let run files no_stdlib =
    match Driver.load_files ~stdlib:(not no_stdlib) files with
    | Ok program -> print program
    | Error e -> Driver.report_and_exit e
  in
  Cmd.v
    (Cmd.info name ~doc ~exits:common_exits)
    Term.(const run $ Session.files_arg $ Session.no_stdlib_arg)

let decompile_cmd =
  load_program_cmd "decompile" ~doc:"Parse, lower, and print back equivalent MJ source."
    (fun program -> print_string (Pta_frontend.To_mj.program_to_source program))

let exceptions_cmd =
  let run flags analysis =
    Session.run Native flags ~analysis (fun s _ r ->
        let program = s.Session.program in
        let escapes = Pta_clients.Exceptions.escapes r.Driver.solver in
        let uncaught =
          Pta_clients.Exceptions.uncaught_at_entries r.Driver.solver escapes
        in
        fun ppf ->
          List.iter
            (fun (e : Pta_clients.Exceptions.escape) ->
              Format.fprintf ppf "%s may leak:@."
                (Ir.Program.meth_qualified_name program e.meth);
              List.iter
                (fun h ->
                  Format.fprintf ppf "    %s@." (Ir.Program.heap_name program h))
                e.exceptions)
            escapes;
          Format.fprintf ppf
            "%d method(s) may leak exceptions; %d site(s) may escape main@."
            (List.length escapes) (List.length uncaught))
  in
  let doc = "Report which exceptions may escape which methods." in
  Cmd.v
    (Cmd.info "exceptions" ~doc ~exits:common_exits)
    Term.(const run $ traced_flags $ analysis_arg)

let dump_ir_cmd =
  load_program_cmd "dump-ir" ~doc:"Parse, lower and pretty-print the IR."
    (fun program -> Format.printf "@[<v>%a@]@." Pta_ir.Ir_pp.pp_program program)

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
  let datalog_arg =
    let doc =
      "Census the reference Datalog implementation's relations instead of \
       the native solver's supergraph."
    in
    Arg.(value & flag & info [ "datalog" ] ~doc)
  in
  let run flags analysis datalog format output =
    let census =
      let client census_of _ _ r =
        let census = census_of r in
        fun _ -> census
      in
      if datalog then Session.run Datalog flags ~analysis (client Pta_refimpl.Refimpl.census)
      else
        Session.run Native flags ~analysis
          (client (fun r -> Solver.census r.Driver.solver))
    in
    match format with
    | `Text -> write_output output (Format.asprintf "%a" Census.pp census)
    | `Json ->
      write_output output
        (Json.to_string (Session.stamp_build (Census.to_json census)) ^ "\n")
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
         cmp-identical JSON.";
    ]
  in
  Cmd.v
    (Cmd.info "heapmap" ~doc ~man ~exits:common_exits)
    Term.(
      const run $ plain_flags Session.files_arg $ analysis_arg $ datalog_arg
      $ format_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* bench: the evaluation grids and the regression gate                  *)
(* ------------------------------------------------------------------ *)

(* The bench commands report timeouts as table entries and regressions
   as verdicts, so they have their own exit vocabulary. *)
let bench_exits =
  [
    Cmd.Exit.info 2
      ~doc:"on a missing, corrupt or unsupported snapshot, an unknown \
            benchmark or analysis, or a malformed argument.";
    Cmd.Exit.info 4
      ~doc:"($(b,compare)) when any cell regressed against the baseline.";
  ]
  @ Cmd.Exit.defaults

let load_snapshot path =
  match Snapshot.of_string (read_file path) with
  | Ok s -> s
  | Error e -> fail_usage "%s: %s" path e

let time_tol_arg =
  let doc = "Time tolerance, percent over the baseline cell." in
  Arg.(value & opt float Snapshot.default_thresholds.Snapshot.time_tol_pct
       & info [ "time-tol" ] ~docv:"PCT" ~doc)

let heap_tol_arg =
  let doc = "Peak-heap tolerance, percent over the baseline cell." in
  Arg.(value & opt float Snapshot.default_thresholds.Snapshot.heap_tol_pct
       & info [ "heap-tol" ] ~docv:"PCT" ~doc)

let heap_component_tol_arg =
  let doc =
    "Per-census-component retained-heap tolerance, percent over the \
     baseline cell."
  in
  Arg.(
    value
    & opt float Snapshot.default_thresholds.Snapshot.heap_component_tol_pct
    & info [ "heap-component-tol" ] ~docv:"PCT" ~doc)

let min_time_arg =
  let doc =
    "Noise floor: skip the time check when the baseline cell is below \
     $(docv) seconds."
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

(* The evaluation grids.  Every cell runs in its own [bench cell]
   process (see [Pta_bench.Grid]). *)

let grid_term =
  let timeout =
    Arg.(
      value & opt float 90.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-cell analysis cutoff; a cell that exceeds it prints as \
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
     for every benchmark x analysis.  Writes table1.csv and the \
     BENCH_table1.json snapshot to the working directory."
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

let scaling_cmd =
  fixed_cmd "scaling" "Analysis cost against program size (luindex x0.5-2)."
    Grid.scaling

let all_cmd =
  benchmarks_cmd "all"
    "table1, figure3, summary, ablation and scaling, sharing their cells."
    (fun g ~benchmarks ->
      Grid.table1 g ~benchmarks ~analyses:Grid.table1_analyses;
      Grid.figure3 g ~benchmarks;
      Grid.summary g ~benchmarks;
      Grid.ablation g;
      Grid.scaling g)

let compare_bench_cmd =
  let baseline_arg =
    let doc = "The committed snapshot to gate against." in
    Arg.(
      required & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let run g baseline_file bs xs thresholds =
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
        ~thresholds
    in
    if failed then exit 4
  in
  grid_cmd "compare"
    "Re-measure the baseline's cells (or the $(b,--benchmarks) x \
     $(b,--analyses) subset) and gate them against it: exit 4 when a cell \
     is slower, fatter or newly timed out beyond the tolerances."
    Term.(
      const run $ grid_term $ baseline_arg $ benchmarks_arg $ analyses_arg
      $ thresholds_term)

let cell_cmd =
  grid_cmd "cell"
    "Internal: measure one grid cell for the grid commands, reading the \
     request from stdin and writing the outcome to stdout."
    Term.(const Grid.child $ const ())

let bench_cmd =
  let doc = "The paper's evaluation grids and the snapshot regression gate." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every grid cell runs in a fresh process, so its peak heap does not \
         depend on the cells before it.  $(b,table1) and $(b,propbench) \
         write a snapshot; $(b,compare --baseline) $(i,FILE) re-measures \
         the snapshot's cells and exits 4 on a regression.";
      `P
        "The committed baselines are the performance record: \
         $(b,git log -p BENCH_table1.json) is the trajectory, and \
         $(b,git bisect run) over $(b,bench compare --baseline) \
         $(i,GOOD.json) $(b,--benchmarks) $(i,B) $(b,--analyses) $(i,A) \
         finds the commit at which one cell regressed.";
    ]
  in
  Cmd.group
    (Cmd.info "bench" ~doc ~man ~exits:bench_exits)
    [
      table1_cmd; figure3_cmd; summary_cmd; ablation_cmd; scaling_cmd;
      propbench_cmd; all_cmd; compare_bench_cmd; cell_cmd;
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
      why_cmd; exceptions_cmd; callgraph_cmd; stats_cmd;
      dump_ir_cmd; decompile_cmd; gen_cmd; strategies_cmd; heapmap_cmd;
      bench_cmd; version_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
