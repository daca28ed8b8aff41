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

val exit_code : error -> int
(** 1 / 2 / 3 as per the contract above. *)

val pp_error : Format.formatter -> error -> unit

val report_and_exit : error -> 'a
(** Print to stderr, [exit (exit_code e)]. *)

(** {1 Loading} *)

val configure_gc : unit -> unit
(** Raise the minor heap to {!minor_heap_words} unless it is already at
    least that large (an [OCAMLRUNPARAM=s=...] setting is never lowered).
    Idempotent; {!load_program} calls it first. *)

val minor_heap_words : int

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
  wall_time_s : float;
  stats : Pta_obs.Run_stats.t option;  (** [Some] iff [collect_stats] *)
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
    firing, and the sampler is gone when [run] returns), and the full
    {!Pta_obs.Run_stats.t} bundle (counters, final sizes, wall time,
    phase timings, the tracker's GC delta) is read off the solver, the
    budget and the tracker.

    If [config] carries a live {!Pta_obs.Trace.t}, the four Table-1
    precision gauges are sampled into it at fixpoint as
    ["gauge"]-category counters: ["contexts"], ["avg objs per var"],
    ["reachable methods"] and ["call-graph edges"]. *)
