(** The one place that loads MJ programs and runs analyses on them.

    The CLI, the bench harness, and the examples all need the same
    plumbing: read sources, link the bundled mini-JDK, resolve an
    analysis name through the strategy registry, run the solver under a
    {!Pta_solver.Solver.Config.t}, and report errors with normalised
    exit codes.  This module is that plumbing, once.

    Exit-code contract (shared by every [pointsto] subcommand):
    parse/lexical/semantic error = 1, unknown analysis = 2,
    timeout = 3. *)

type source =
  | File of string  (** path to an MJ source file *)
  | Literal of { name : string; contents : string }

type error =
  | Frontend_error of exn
      (** a lexical / syntax / semantic error; format with {!pp_error} *)
  | Unknown_analysis of { name : string; suggestions : string list }
      (** no preset of that name; [suggestions] are the closest-matching
          preset names, for the error message *)
  | Bad_strategy_expr of { expr : string; msg : string }
      (** the argument looked like a strategy-algebra expression but
          failed to parse or validate *)
  | Timed_out of { analysis : string; abort : Pta_obs.Budget.abort }

val pp_error : Format.formatter -> error -> unit

val report_and_exit : error -> 'a
(** Print to stderr and exit 1 / 2 / 3 as per the contract above. *)

(** {1 Loading} *)

val configure_gc : unit -> unit
(** Raise the minor heap to 4M words unless it is already at least
    that large (an [OCAMLRUNPARAM=s=...] setting is never lowered).
    Idempotent; {!load_program} calls it first. *)

val load_program :
  ?stdlib:bool -> source list -> (Pta_ir.Ir.Program.t, error) result
(** {!configure_gc}, then parse, link and lower.  Unless
    [~stdlib:false], the mini-JDK's declarations, parsed at build time
    ({!Pta_mjdk.Mjdk.decls}), come first.
    Never raises on bad input: lexical, syntax and semantic failures
    come back as [Error (Frontend_error _)]. *)

val load_files :
  ?stdlib:bool -> string list -> (Pta_ir.Ir.Program.t, error) result

val load_string :
  ?stdlib:bool ->
  ?name:string ->
  string ->
  (Pta_ir.Ir.Program.t, error) result

(** {1 Running} *)

val strategy_of_name :
  Pta_ir.Ir.Program.t -> string -> (Pta_context.Strategy.t, error) result
(** Resolve through {!Pta_context.Strategies.resolve}: a preset name
    (["S-2obj+H"]) or a strategy-algebra expression
    (["selective(obj 2 1)"]). *)

type run = {
  solver : Pta_solver.Solver.t;
  strategy : Pta_context.Strategy.t;
  wall_time_s : float;  (** the solver's ["setup"] plus ["fixpoint"] *)
  iterations : int;  (** the budget's worklist iterations *)
  memory : Pta_obs.Memstats.delta option;
      (** the solve's GC profile; [Some] iff [collect_stats] *)
}

val run :
  ?config:Pta_solver.Solver.Config.t ->
  ?collect_stats:bool ->
  Pta_ir.Ir.Program.t ->
  analysis:string ->
  (run, error) result
(** Resolve [analysis] and solve under [config].  With
    [~collect_stats:true] the solve runs under a GC tracker that every
    1024th tick of [config]'s budget samples
    ({!Pta_obs.Memstats.sampling}: callbacks already on the budget keep
    firing, and the sampler is gone when [run] returns), and [memory]
    holds the tracker's delta.

    If [config] carries a live {!Pta_obs.Trace.t}, the four Table-1
    precision gauges are sampled into it at fixpoint as
    ["gauge"]-category counters: ["contexts"], ["avg objs per var"],
    ["reachable methods"] and ["call-graph edges"]. *)

val stats_json :
  run ->
  analysis:string ->
  phases:(string * float) list ->
  load_minor_words:float ->
  Pta_obs.Json.t
(** The [--stats-json] document of one run: [analysis], the run's wall time
    and iterations, the solver's sizes and work counters, [phases]
    (seconds, in the order given) and, when the run collected stats,
    ["memory"]: [load_minor_words], then the solve's
    {!Pta_obs.Memstats.to_json}.  Every key but ["wall_time_s"],
    ["phases"] and ["memory"] is deterministic. *)
