(* One analysing run of the CLI, shared by every subcommand that solves:
   the flags such a run reads, the program load, one solve per analysis
   under either engine, and the exit step that prints the report and
   writes the stats and the trace.

   The time budget of an analysis counts its whole share of the run:
   the load of the program, its solve and the client that reads the
   solution.  A run of several analyses loads once and charges the load
   to each of them, as if each had run alone.  A single-analysis run
   turns an exhausted budget into exit 3 (in [run]); a run of several
   reports the analysis as a "-" row (in [attempt]). *)

module Solver = Pta_solver.Solver
module Driver = Pta_driver.Driver
module Refimpl = Pta_refimpl.Refimpl
module Budget = Pta_obs.Budget
module Clock = Pta_obs.Clock
module Json = Pta_obs.Json
module Run_stats = Pta_obs.Run_stats
module Trace = Pta_obs.Trace
module Version = Pta_version.Version
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"MJ source files.")

let no_stdlib_arg =
  let doc = "Do not link the bundled mini-JDK." in
  Arg.(value & flag & info [ "no-stdlib" ] ~doc)

let timeout_arg =
  let doc =
    "Abort after $(docv) seconds (exit code 3).  The time counts parsing \
     and lowering the program, the solve, and the client that reads its \
     result; a subcommand that runs several analyses charges each of them \
     the load and reports one that runs out as $(b,-)."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let stats_json_arg =
  let doc =
    "Write run statistics (wall time, iterations, nodes, edges, contexts, \
     abstract objects, sensitive var-points-to size, per-phase timings) as \
     JSON to $(docv), or to stdout if $(docv) is $(b,-) (the human-readable \
     report then goes to stderr; $(b,--trace) must then name a file)."
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

(* What a subcommand passes for a flag it does not offer. *)
let absent = Term.const None
let off = Term.const false

type flags = {
  files : string list;
  no_stdlib : bool;
  timeout_s : float option;
  stats_json : string option;
  trace_file : string option;
  progress : bool;
  profile : bool;
}

let flags files ~stats_json ~trace ~progress ~profile =
  let make files no_stdlib timeout_s stats_json trace_file progress profile =
    { files; no_stdlib; timeout_s; stats_json; trace_file; progress; profile }
  in
  Term.(
    const make $ files $ no_stdlib_arg $ timeout_arg $ stats_json $ trace
    $ progress $ profile)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

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

(* "-" means stdout, so machine output can be piped; the human-readable
   report then goes to stderr to keep the two streams from
   interleaving. *)
let write_output path contents =
  if String.equal path "-" then (print_string contents; flush stdout)
  else write_file path contents

(* Every machine-readable stats document carries the build stamp, so a
   recorded number can be traced back to the binary that produced it. *)
let stamp_build = function
  | Json.Obj fields -> Json.Obj (fields @ [ ("pointsto", Version.to_json ()) ])
  | j -> j

(* ------------------------------------------------------------------ *)
(* The session                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = Solved of Run_stats.t | Timed_out of string * Budget.abort

type t = {
  flags : flags;
  program : Pta_ir.Ir.Program.t;
  trace : Trace.t;
  clock : Clock.t;  (** started before the load *)
  load_s : float;
  mutable outcomes : outcome list;  (** newest first *)
}

type _ engine =
  | Native : Driver.run engine
  | Datalog : Refimpl.t engine  (** the reference Datalog rules *)

(* Exits 1 on a frontend error, and 2 when [--stats-json] and [--trace]
   both claim stdout: two JSON documents back to back parse as neither.
   [trace] replaces the sink [--trace] would create, for a subcommand
   that always records. *)
let load ?trace flags =
  if flags.stats_json = Some "-" && flags.trace_file = Some "-" then begin
    prerr_endline
      "pointsto: --stats-json and --trace cannot both write to stdout (-); \
       send one of them to a file";
    exit 2
  end;
  let clock = Clock.create () in
  let trace =
    match (trace, flags.trace_file) with
    | Some trace, _ -> trace
    | None, None -> Trace.null
    | None, Some _ -> Trace.create ()
  in
  let program =
    match
      Driver.load_program ~stdlib:(not flags.no_stdlib)
        (List.map (fun f -> Driver.File f) flags.files)
    with
    | Ok program -> program
    | Error e -> Driver.report_and_exit e
  in
  { flags; program; trace; clock; load_s = Clock.elapsed_s clock; outcomes = [] }

(* Abort payloads count from the start of the solve; the load came
   before it. *)
let charge s (abort : Budget.abort) =
  { abort with Budget.elapsed_s = abort.Budget.elapsed_s +. s.load_s }

(* [--progress]: a running iteration count on stderr, overwritten in
   place while the fixpoint runs, then one line per solver phase. *)
let report_progress budget =
  Budget.on_tick budget (fun n ->
      if n land 0xFFFF = 0 then
        Printf.eprintf "\r[progress] %9d iterations %8.1fs%!" n
          (Budget.elapsed_s budget))

let report_phases solver =
  List.iter
    (fun (name, s) ->
      Printf.eprintf "\r[progress] phase %-10s done in %.3fs%s\n%!" name s
        (String.make 24 ' '))
    (Solver.phases solver)

(* Solve [analysis] under a fresh budget holding what the load left of
   the timeout.  Exits 1 or 2 on a bad analysis name.
   @raise Budget.Exhausted when the budget runs out, in the load or in
   the solve. *)
let solve : type r. t -> r engine -> string -> Budget.t * r =
 fun s engine analysis ->
  let timeout_s = Option.map (fun t -> t -. s.load_s) s.flags.timeout_s in
  (match timeout_s with
  | Some t when t <= 0. ->
    raise (Budget.Exhausted { Budget.elapsed_s = 0.; iterations = 0; nodes = 0 })
  | _ -> ());
  let config = Solver.Config.make ?timeout_s ~trace:s.trace () in
  let budget = config.Solver.Config.budget in
  if s.flags.progress then report_progress budget;
  match engine with
  | Native -> (
    let collect_stats = s.flags.stats_json <> None || s.flags.profile in
    match Driver.run ~config ~collect_stats s.program ~analysis with
    | Ok r ->
      if s.flags.progress then report_phases r.Driver.solver;
      (budget, r)
    | Error (Driver.Timed_out { abort; _ }) -> raise (Budget.Exhausted abort)
    | Error e -> Driver.report_and_exit e)
  | Datalog -> (
    match Driver.strategy_of_name s.program analysis with
    | Ok strategy -> (budget, Refimpl.run ~budget ~trace:s.trace s.program strategy)
    | Error e -> Driver.report_and_exit e)

(* Solve, then run [client] on the solution under the same budget, whose
   deadline is polled once more when the client returns. *)
let solve_and : type r a. t -> r engine -> string -> (Budget.t -> r -> a) -> a =
 fun s engine analysis client ->
  let budget, r = solve s engine analysis in
  let v = client budget r in
  Budget.check budget;
  (match engine with
  | Native -> Option.iter (fun st -> s.outcomes <- Solved st :: s.outcomes) r.Driver.stats
  | Datalog -> ());
  v

(* One analysis of several: [None] when its budget ran out. *)
let attempt s engine analysis client =
  match solve_and s engine analysis client with
  | v -> Some v
  | exception Budget.Exhausted abort ->
    s.outcomes <- Timed_out (analysis, charge s abort) :: s.outcomes;
    None

let outcome_doc = function
  | Solved stats -> stamp_build (Run_stats.to_json stats)
  | Timed_out (analysis, abort) ->
    Json.Obj
      [
        ("analysis", Json.String analysis);
        ("timed_out", Json.Bool true);
        ("elapsed_s", Json.Float abort.Budget.elapsed_s);
        ("iterations", Json.Int abort.Budget.iterations);
        ("nodes", Json.Int abort.Budget.nodes);
      ]

(* The exit step: the report (on stderr when machine output claimed
   stdout), the [--profile] blocks, the stats document — one object for
   a single analysis, a list for several — and the trace. *)
let finish ?(several = false) s report =
  let f = s.flags in
  let on_stdout = function Some "-" -> true | _ -> false in
  let ppf =
    if on_stdout f.stats_json || on_stdout f.trace_file then Format.err_formatter
    else Format.std_formatter
  in
  let v = report ppf in
  let outcomes = List.rev s.outcomes in
  if f.profile then
    List.iter
      (function
        | Solved stats -> Format.fprintf ppf "%a@." Run_stats.pp stats
        | Timed_out _ -> ())
      outcomes;
  Option.iter
    (fun path ->
      let docs = List.map outcome_doc outcomes in
      let doc = match docs with [ doc ] when not several -> doc | _ -> Json.List docs in
      write_output path (Json.to_string doc))
    f.stats_json;
  Option.iter
    (fun path -> write_output path (Json.to_string (Trace.to_chrome_json s.trace)))
    f.trace_file;
  v

(* A single-analysis subcommand: load, solve, [client], exit step.
   [client] computes its result and returns the printer of its report,
   so a run that times out prints none of it. *)
let run ?trace engine flags ~analysis client =
  let s = load ?trace flags in
  match solve_and s engine analysis (client s) with
  | report -> finish s report
  | exception Budget.Exhausted abort ->
    Driver.report_and_exit (Driver.Timed_out { analysis; abort = charge s abort })
