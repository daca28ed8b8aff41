(* What one request process does: run a request through exactly the
   public calls its CLI subcommand makes, timed from inside.  A traced
   request makes the same calls split at each layer's public entry point
   and records a span around each; the benchmark never turns on the
   program's own instrumentation. *)

module Ir = Pta_ir.Ir
module Driver = Pta_driver.Driver
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Checkers = Pta_checkers.Checkers
module Diagnostic = Pta_checkers.Diagnostic

(* Facts a concrete run of the program observed, as raw ids; a sound
   solve contains every one of them. *)
type observed = {
  var_points : (int * int) array;  (** (variable, allocation site) *)
  call_edges : (int * int) array;  (** (invocation, target method) *)
  reached : int array;  (** methods entered *)
}

type span = {
  name : string;
  start : float;  (** seconds since the request started *)
  stop : float;
  parent : int;  (** index of the enclosing span; -1 for the request *)
}

type outcome = {
  digest : string;  (** hex MD5 of the rendered report *)
  request_s : float;
  load_s : float;  (** the [Driver.load_program] share of [request_s] *)
  cpu_s : float;  (** user + system *)
  load_cpu_s : float;  (** the [Driver.load_program] share of [cpu_s] *)
  heap_growth_words : int;  (** peak major heap minus the heap at start *)
  unsound : string option;  (** first observed fact the solve misses *)
  spans : span array;  (** traced only; span 0 is the request *)
  counts : (string * float) list;  (** traced only: per-layer counters *)
}

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Major-heap high-water mark, sampled by a GC alarm at the end of every
   major cycle and explicitly wherever a peak is read. *)
let peak = ref 0

let sample_heap () =
  let h = heap_words () in
  if h > !peak then peak := h

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Span recording: [None] for an untraced request, where [span] is just
   the call. *)
type recorder = {
  t0 : float;
  mutable spans : (int * span) list;
  mutable stack : int list;
  mutable next : int;
  mutable counts : (string * float) list;
}

let span r name f =
  match r with
  | None -> f ()
  | Some r ->
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let start = Unix.gettimeofday () -. r.t0 in
    let x = f () in
    let stop = Unix.gettimeofday () -. r.t0 in
    r.stack <- List.tl r.stack;
    r.spans <- (id, { name; start; stop; parent }) :: r.spans;
    x

let count r name v =
  match r with
  | None -> ()
  | Some r ->
    let prev = Option.value ~default:0. (List.assoc_opt name r.counts) in
    r.counts <- (name, prev +. v) :: List.remove_assoc name r.counts

let ok = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%a" Driver.pp_error e)

(* Driver.load_program, split into its three public calls when traced. *)
let load r file =
  match r with
  | None -> ok (Driver.load_program [ Driver.File file ])
  | Some _ ->
    let module Frontend = Pta_frontend.Frontend in
    let module Mjdk = Pta_mjdk.Mjdk in
    let jdk =
      span r "mjdk.link" (fun () ->
          Frontend.parse ~file:Mjdk.file_name Mjdk.source)
    in
    let decls =
      span r "frontend.parse" (fun () ->
          let contents = In_channel.with_open_bin file In_channel.input_all in
          count r "frontend.bytes" (float_of_int (String.length contents));
          Frontend.parse ~file contents)
    in
    let program =
      span r "frontend.lower" (fun () -> Pta_frontend.Lower.program (jdk @ decls))
    in
    count r "frontend.ir_meths" (float_of_int (Ir.Program.n_meths program));
    count r "frontend.ir_vars" (float_of_int (Ir.Program.n_vars program));
    count r "frontend.ir_invos" (float_of_int (Ir.Program.n_invos program));
    program

(* Driver.run, split into strategy resolution and the solve when traced. *)
let solve r program analysis =
  match r with
  | None -> (ok (Driver.run program ~analysis)).Driver.solver
  | Some _ ->
    let strategy =
      span r "context.resolve" (fun () ->
          ok (Driver.strategy_of_name program analysis))
    in
    let heap0 = heap_words () and outer_peak = !peak in
    peak := heap0;
    let alloc0 = allocated_words () in
    let solver = span r "solver.solve" (fun () -> Solver.solve program strategy) in
    sample_heap ();
    count r "solver.alloc_words" (allocated_words () -. alloc0);
    count r "solver.peak_heap_words" (float_of_int (!peak - heap0));
    peak := max outer_peak !peak;
    solver

(* The rest of [pointsto analyze] (bin/pointsto.ml, analyze_cmd). *)
let analyze_report r solver =
  let module Metrics = Pta_clients.Metrics in
  span r "clients.metrics" (fun () ->
      let alloc0 = allocated_words () in
      let text = Format.asprintf "%a" Metrics.pp (Metrics.compute solver) in
      count r "clients.metrics_alloc_words" (allocated_words () -. alloc0);
      text)

(* Checkers.run, one checker at a time when traced; merging the
   per-checker lists with the same stable sort gives the same order. *)
let run_checkers r results =
  match r with
  | None -> Checkers.run results
  | Some _ ->
    List.sort Diagnostic.compare
      (List.concat_map
         (fun (i : Checkers.info) ->
           let diags =
             span r ("checkers." ^ i.code) (fun () ->
                 Checkers.run ~only:[ i.code ] results)
           in
           if i.code = "may-fail-cast" then
             count r "checkers.may-fail-cast.witnesses"
               (float_of_int
                  (List.fold_left
                     (fun n (d : Diagnostic.t) -> n + List.length d.witnesses)
                     0 diags));
           diags)
         Checkers.all)

(* The rest of [pointsto check --format sarif --taint-spec SPEC]
   (bin/pointsto.ml, check_cmd). *)
let check_report r ~spec_file program solver =
  let module Taint = Pta_taint.Taint in
  let spec =
    span r "taint.compile" (fun () ->
        match Pta_taint.Spec.load spec_file with
        | Ok entries -> Pta_taint.Spec.compile program entries
        | Error msg -> failwith msg)
  in
  let taint =
    span r "taint.analyze" (fun () ->
        let t = Taint.analyze solver spec in
        count r "taint.flows" (float_of_int (Taint.n_flows t));
        Taint.summary t)
  in
  let results =
    span r "checkers.results" (fun () ->
        Pta_checkers.Results.of_solver ~taint solver)
  in
  let in_stdlib (d : Diagnostic.t) =
    match d.span with
    | Some sp -> String.equal sp.Pta_ir.Srcloc.left.file Pta_mjdk.Mjdk.file_name
    | None -> false
  in
  let diags =
    List.filter (fun d -> not (in_stdlib d)) (run_checkers r results)
  in
  count r "checkers.diags" (float_of_int (List.length diags));
  let sarif =
    span r "checkers.render" (fun () ->
        Pta_checkers.Sarif.to_string ~tool_version:"1.0.0" diags)
  in
  count r "checkers.sarif_bytes" (float_of_int (String.length sarif));
  sarif

let first_unsound solver (obs : observed) =
  let reachable = Solver.reachable_meths solver in
  let missing_var =
    Array.find_opt
      (fun (v, h) ->
        not (Intset.mem h (Solver.ci_var_points_to solver (Ir.Var_id.of_int v))))
      obs.var_points
  and missing_edge =
    Array.find_opt
      (fun (i, m) ->
        not
          (Ir.Meth_id.Set.mem (Ir.Meth_id.of_int m)
             (Solver.invo_targets solver (Ir.Invo_id.of_int i))))
      obs.call_edges
  and missing_meth =
    Array.find_opt
      (fun m -> not (Ir.Meth_id.Set.mem (Ir.Meth_id.of_int m) reachable))
      obs.reached
  in
  match (missing_var, missing_edge, missing_meth) with
  | Some (v, h), _, _ -> Some (Printf.sprintf "var %d may point to heap %d" v h)
  | None, Some (i, m), _ -> Some (Printf.sprintf "call edge %d -> %d" i m)
  | None, None, Some m -> Some (Printf.sprintf "method %d is reached" m)
  | None, None, None -> None

(* Run one request in the current directory, where set-up wrote
   [<program>.mj], [<program>.observed] and the taint spec. *)
let run ~traced ~spec_file (req : Workload.request) =
  let _alarm = Gc.create_alarm sample_heap in
  let t0 = Unix.gettimeofday () in
  let r =
    if traced then Some { t0; spans = []; stack = []; next = 0; counts = [] }
    else None
  in
  let cpu0 = cpu_now () and heap0 = heap_words () in
  peak := heap0;
  let file = req.program ^ ".mj" in
  let solver, report, (load_s, load_cpu_s) =
    span r "request" (fun () ->
        let program = load r file in
        let load = (Unix.gettimeofday () -. t0, cpu_now () -. cpu0) in
        let solver = solve r program req.analysis in
        let report =
          match req.kind with
          | Workload.Analyze -> analyze_report r solver
          | Workload.Check -> check_report r ~spec_file program solver
        in
        (solver, report, load))
  in
  let request_s = Unix.gettimeofday () -. t0 in
  let cpu_s = cpu_now () -. cpu0 in
  sample_heap ();
  let heap_growth_words = !peak - heap0 in
  let observed : observed =
    In_channel.with_open_bin (req.program ^ ".observed") Marshal.from_channel
  in
  let spans, counts =
    match r with
    | None -> ([||], [])
    | Some r ->
      (* Sizes are summed over the solver's tables and the census walks
         the whole heap, so both run after the request span has closed. *)
      List.iter
        (fun (name, v) -> count (Some r) name (float_of_int v))
        [
          ("solver.nodes", Solver.n_nodes solver);
          ("solver.var_nodes", Solver.n_var_nodes solver);
          ("solver.ctxs", Solver.n_ctxs solver);
          ("solver.hctxs", Solver.n_hctxs solver);
          ("solver.hobjs", Solver.n_hobjs solver);
          ("solver.sensitive_vpt", Solver.sensitive_vpt_size solver);
          ("solver.cs_call_edges", Solver.n_call_edges_cs solver);
        ];
      let census = Solver.census solver in
      List.iter
        (fun (c : Pta_obs.Census.component) ->
          count (Some r) ("solver.heap." ^ c.comp_name ^ "_bytes")
            (float_of_int
               (Pta_obs.Census.bytes_of_words census c.retained_words)))
        census.components;
      let spans = Array.make r.next { name = ""; start = 0.; stop = 0.; parent = -1 } in
      List.iter (fun (id, s) -> spans.(id) <- s) r.spans;
      (spans, r.counts)
  in
  {
    digest = Digest.to_hex (Digest.string report);
    request_s;
    load_s;
    cpu_s;
    load_cpu_s;
    heap_growth_words;
    unsound = first_unsound solver observed;
    spans;
    counts;
  }
