module Solver = Pta_solver.Solver
module Strategies = Pta_context.Strategies
module Run_stats = Pta_obs.Run_stats
module Memstats = Pta_obs.Memstats
module Clock = Pta_obs.Clock

type source =
  | File of string
  | Literal of { name : string; contents : string }

type error =
  | Frontend_error of exn
  | Unknown_analysis of { name : string; suggestions : string list }
  | Bad_strategy_expr of { expr : string; msg : string }
  | Timed_out of { analysis : string; abort : Pta_obs.Budget.abort }

let exit_code = function
  | Frontend_error _ -> 1
  | Unknown_analysis _ | Bad_strategy_expr _ -> 2
  | Timed_out _ -> 3

let pp_error ppf = function
  | Frontend_error exn ->
    if not (Pta_frontend.Frontend.report ppf exn) then raise exn
  | Unknown_analysis { name; suggestions } ->
    Format.fprintf ppf "unknown analysis %S" name;
    (match suggestions with
    | [] -> ()
    | [ s ] -> Format.fprintf ppf " (did you mean %s?)" s
    | ss -> Format.fprintf ppf " (did you mean %s?)" (String.concat " or " ss));
    Format.fprintf ppf "@\navailable: %s"
      (String.concat ", " Strategies.names);
    Format.fprintf ppf
      "@\nsee `pointsto strategies', or pass an algebra expression such as \
       'selective(obj 2 1)'"
  | Bad_strategy_expr { expr; msg } ->
    Format.fprintf ppf "bad strategy expression %S: %s" expr msg
  | Timed_out { analysis; abort } ->
    Format.fprintf ppf
      "analysis %s timed out after %.1fs (%d iterations, %d nodes)" analysis
      abort.Pta_obs.Budget.elapsed_s abort.Pta_obs.Budget.iterations
      abort.Pta_obs.Budget.nodes

let report_and_exit err =
  Format.eprintf "%a@." pp_error err;
  exit (exit_code err)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_frontend_error exn =
  let sink = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Pta_frontend.Frontend.report sink exn

(* A fresh process runs with the runtime's 256k-word minor heap, so a
   request promotes most of what it allocates, the parsed AST included,
   and runs its first major cycles during the load.  With a 4M-word
   nursery a small request finishes inside it, and the load of a
   Table-1 program like gen antlr runs without one, its AST dying
   young.
   Raised once, from the load every analysing entry point goes through,
   and never lowered below a size set through [OCAMLRUNPARAM]. *)
let minor_heap_words = 4 * 1024 * 1024

let configure_gc () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

let load_program ?(stdlib = true) sources =
  configure_gc ();
  match
    let user =
      List.concat_map
        (fun (file, contents) -> Pta_frontend.Frontend.parse ~file contents)
        (List.map
           (function
             | File path -> (path, read_file path)
             | Literal { name; contents } -> (name, contents))
           sources)
    in
    Pta_frontend.Lower.program
      (if stdlib then Pta_mjdk.Mjdk.decls @ user else user)
  with
  | program -> Ok program
  | exception exn when is_frontend_error exn -> Error (Frontend_error exn)

let load_files ?stdlib paths =
  load_program ?stdlib (List.map (fun p -> File p) paths)

let load_string ?stdlib ?(name = "<string>") contents =
  load_program ?stdlib [ Literal { name; contents } ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let strategy_of_name program name =
  match Strategies.resolve name with
  | Ok factory -> Ok (factory program)
  | Error (Strategies.Unknown_name { name; suggestions }) ->
    Error (Unknown_analysis { name; suggestions })
  | Error (Strategies.Bad_expression { expr; msg }) ->
    Error (Bad_strategy_expr { expr; msg })

type run = {
  solver : Solver.t;
  strategy : Pta_context.Strategy.t;
  wall_time_s : float;
  stats : Run_stats.t option;
}

(* The four Table-1 precision gauges, sampled once at fixpoint into the
   trace so a Chrome-trace export is self-describing. *)
let emit_gauges trace solver =
  let module Trace = Pta_obs.Trace in
  if not (Trace.is_null trace) then begin
    let { Solver.vars_with_objs = vars; ci_facts = objs; _ } =
      Solver.vpt_counts solver
    in
    let avg = if vars = 0 then 0. else float_of_int objs /. float_of_int vars in
    Trace.counter trace ~cat:"gauge" "contexts"
      (float_of_int (Solver.n_ctxs solver));
    Trace.counter trace ~cat:"gauge" "avg objs per var" avg;
    Trace.counter trace ~cat:"gauge" "reachable methods"
      (float_of_int
         (Pta_ir.Ir.Meth_id.Set.cardinal (Solver.reachable_meths solver)));
    Trace.counter trace ~cat:"gauge" "call-graph edges"
      (float_of_int (Solver.n_call_edges_ci solver))
  end

let run ?(config = Solver.Config.default) ?(collect_stats = false) program
    ~analysis =
  match strategy_of_name program analysis with
  | Error e -> Error e
  | Ok strategy -> (
    (* GC tracking is on whenever someone will read the stats bundle.
       The budget's ticks sample the peak. *)
    let tracker =
      if collect_stats then Some (Memstats.start_tracking ()) else None
    in
    let solve () = Solver.solve ~config program strategy in
    let clock = Clock.create () in
    match
      match tracker with
      | None -> solve ()
      | Some t -> Memstats.sampling t config.Solver.Config.budget solve
    with
    | solver ->
      let wall_time_s = Clock.elapsed_s clock in
      let memory = Option.map Memstats.finish tracker in
      emit_gauges config.Solver.Config.trace solver;
      let stats =
        Option.map
          (fun memory ->
            {
              Run_stats.analysis;
              wall_time_s;
              iterations = Pta_obs.Budget.iterations config.Solver.Config.budget;
              n_nodes = Solver.n_nodes solver;
              n_edges = Solver.n_edges solver;
              n_ctxs = Solver.n_ctxs solver;
              n_hctxs = Solver.n_hctxs solver;
              n_hobjs = Solver.n_hobjs solver;
              sensitive_vpt_size = Solver.sensitive_vpt_size solver;
              triggers = Solver.n_triggers solver;
              delta_total = Solver.delta_total solver;
              max_delta = Solver.max_delta solver;
              sccs_collapsed = Solver.sccs_collapsed solver;
              nodes_unified = Solver.nodes_unified solver;
              stale_skipped = Solver.stale_skipped solver;
              phases = Solver.phases solver;
              memory;
            })
          memory
      in
      Ok { solver; strategy; wall_time_s; stats }
    | exception Solver.Timeout abort ->
      Option.iter (fun t -> ignore (Memstats.finish t)) tracker;
      Error (Timed_out { analysis; abort }))
