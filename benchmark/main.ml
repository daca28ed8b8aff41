(* End-to-end benchmark of the pointsto CLI.

   [run] sends each workload's requests as a closed loop with one client:
   every request runs in a child process, one child at a time, and the
   child times itself.  [bless] rewrites the expected digests,
   [compare] judges two result files against the bounds in
   BENCHMARK.json.  See README.md in this directory. *)

module Json = Pta_obs.Json
module Ir = Pta_ir.Ir

let work_dir = ".benchmark-work"
let spec_file = "taint.spec"
let setup_deadline_s = 600.
let mib = 1048576.
let word_bytes = float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Children                                                            *)
(* ------------------------------------------------------------------ *)

let rec waitpid_retry pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Read a child's output until it closes it, SIGKILLing the child if the
   deadline passes first, then reap the child.  The parent waits for
   every child before starting the next, so at most one exists. *)
let collect ~deadline pid rd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let stop_at = Unix.gettimeofday () +. deadline in
  let rec drain () =
    let left = stop_at -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  Unix.close rd;
  if not finished then Unix.kill pid Sys.sigkill;
  let _, status = waitpid_retry pid in
  if not finished then Error (Printf.sprintf "killed at the %gs deadline" deadline)
  else
    match status with
    | Unix.WEXITED 0 when Buffer.length buf > 0 ->
      (Marshal.from_string (Buffer.contents buf) 0 : ('a, string) result)
    | Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "child killed by signal %d" s)

(* ------------------------------------------------------------------ *)
(* Set-up: generated sources and the facts a concrete run observes     *)
(* ------------------------------------------------------------------ *)

let remove_work_dir () =
  if Sys.file_exists work_dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat work_dir f))
      (Sys.readdir work_dir);
    Unix.rmdir work_dir
  end

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let generate_inputs requests =
  write_file spec_file (Pta_taint.Spec.to_string Pta_taint.Spec.default);
  List.iter
    (fun (r : Workload.request) ->
      let file = r.program ^ ".mj" in
      let source = Workload.source r in
      write_file file source;
      let program =
        Pta_frontend.Frontend.program_of_sources
          [ (Pta_mjdk.Mjdk.file_name, Pta_mjdk.Mjdk.source); (file, source) ]
      in
      let module Interp = Pta_interp.Interp in
      let trace = Interp.run ~seed:1L program in
      let pairs f xs = Array.of_list (List.map f xs) in
      let observed : Child.observed =
        {
          var_points =
            pairs
              (fun (v, h) -> (Ir.Var_id.to_int v, Ir.Heap_id.to_int h))
              (Interp.observed_var_points trace);
          call_edges =
            pairs
              (fun (i, m) -> (Ir.Invo_id.to_int i, Ir.Meth_id.to_int m))
              (Interp.observed_call_edges trace);
          reached =
            Array.of_list
              (List.map Ir.Meth_id.to_int (Interp.observed_reached trace));
        }
      in
      Out_channel.with_open_bin (r.program ^ ".observed") (fun oc ->
          Marshal.to_channel oc observed []))
    (Workload.programs requests)

(* What a child process is asked to do, in the work directory. *)
type job =
  | Setup of Workload.request list  (** write the inputs; replies [()] *)
  | Request of bool * Workload.request  (** traced?; replies an outcome *)

(* Run [argv] in a child process fed [input] and return its marshalled
   reply, or why there is none. *)
let spawn ~deadline argv input : ('a, string) result =
  (* A child that dies before reading its input must fail the job, not
     kill the parent with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let in_rd, in_wr = Unix.pipe ~cloexec:true () in
  let out_rd, out_wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv in_rd out_wr Unix.stderr in
  Unix.close in_rd;
  Unix.close out_wr;
  (try write_all in_wr input with Unix.Unix_error _ -> ());
  Unix.close in_wr;
  collect ~deadline pid out_rd

(* Do [job] in a fresh [main.exe child] process.  A request's process is
   like a CLI invocation: its heap starts empty whatever the parent
   holds, so its heap growth is the same on every pass. *)
let run_job ~deadline (job : job) : ('a, string) result =
  spawn ~deadline
    [| Sys.executable_name; "child" |]
    (Marshal.to_string (work_dir, job) [])

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared host the same code runs up to two fifths slower for
   minutes at a time.  So once the untraced requests since the last
   calibration have taken [calib_every_s], and after a pass's last
   request, the reference kernel in calib.exe runs for [calib_share] of
   their time.  The end-to-end times are scaled to a host that runs one
   repetition of the kernel in [nominal_kernel_s] of CPU time. *)
let calib_every_s = 0.2
let calib_share = 0.1
let nominal_kernel_s = 0.011
let calib_exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe"

(* CPU seconds one repetition of the kernel took, repeated for [seconds]. *)
let calibrate seconds : (float, string) result =
  spawn ~deadline:60. [| calib_exe; Printf.sprintf "%.6f" seconds |] ""

let child_cmd () =
  let dir, job = (Marshal.from_channel stdin : string * job) in
  let reply f =
    let payload =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel stdout payload []
  in
  Unix.chdir dir;
  (match job with
  | Setup requests -> reply (fun () -> generate_inputs requests)
  | Request (traced, req) -> reply (fun () -> Child.run ~traced ~spec_file req));
  flush stdout

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type execution = {
  req : Workload.request;
  rid : int;  (** request id, unique within the run *)
  result : (Child.outcome, string) result;
  kernel_s : float option;
      (** host reference taken after the request: CPU seconds per
          repetition of the kernel *)
  failure : string option;
}

type pass = { traced : bool; execs : execution list }

type summary = {
  workload : Workload.t;
  passes : pass list;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the report *)
  setup_s : float;  (** the benchmark's own set-up, not a metric *)
  digests : (string * string) list;  (** first pass, by request key *)
}

let next_rid = ref 0

(* Send one request and check its result: against the expected digest
   (committed programs), against the first digest of the same request
   in this run, and for soundness. *)
let execute ~deadline ~traced ~expected ~first (req : Workload.request) =
  let rid = !next_rid in
  incr next_rid;
  let result : (Child.outcome, string) result =
    run_job ~deadline (Request (traced, req))
  in
  let failure =
    match result with
    | Error msg -> Some msg
    | Ok { unsound = Some fact; _ } -> Some ("unsound: " ^ fact)
    | Ok o -> (
      match expected req.key with
      | `Missing -> Some "no expected digest"
      | `Digest d when d <> o.digest -> Some "digest differs from expected.json"
      | `Digest _ | `Unchecked -> (
        match Hashtbl.find_opt first req.key with
        | Some d when d <> o.digest -> Some "digest differs from the first pass"
        | Some _ -> None
        | None ->
          Hashtbl.add first req.key o.digest;
          None))
  in
  { req; rid; result; kernel_s = None; failure = Option.map (fun m -> req.key ^ ": " ^ m) failure }

(* One untraced pass, with the host reference after every few of its
   requests, and, when tracing, one traced pass.  Each request is traced
   right after its untraced run, so the host's drift over a pass weighs
   on both alike. *)
let run_round ~deadline ~trace ~expected ~first requests =
  let run traced = execute ~deadline ~traced ~expected ~first in
  let last = List.length requests - 1 and pending = ref 0. in
  let calibrated i e =
    (match e.result with Ok o -> pending := !pending +. o.request_s | Error _ -> ());
    if !pending = 0. || (!pending < calib_every_s && i < last) then e
    else begin
      let covered = !pending in
      pending := 0.;
      match calibrate (calib_share *. covered) with
      | Ok kernel_s -> { e with kernel_s = Some kernel_s }
      | Error msg ->
        let msg = e.req.key ^ ": host reference: " ^ msg in
        { e with failure = Some (Option.value e.failure ~default:msg) }
    end
  in
  let pairs =
    List.mapi
      (fun i req ->
        let u = calibrated i (run false req) in
        (u, if trace then Some (run true req) else None))
      requests
  in
  { traced = false; execs = List.map fst pairs }
  :: (if trace then [ { traced = true; execs = List.filter_map snd pairs } ] else [])

(* Rounds until the next one would end after [seconds]; always one. *)
let run_workload ~seed ~seconds ~trace ~deadline ~expected (w : Workload.t) =
  let requests = Workload.requests ~seed w in
  remove_work_dir ();
  Unix.mkdir work_dir 0o755;
  let t_setup = Unix.gettimeofday () in
  let setup : (unit, string) result =
    run_job ~deadline:setup_deadline_s (Setup requests)
  in
  let setup_s = Unix.gettimeofday () -. t_setup in
  let first = Hashtbl.create 64 in
  let passes =
    match setup with
    | Error msg ->
      Printf.eprintf "%s: set-up failed: %s\n%!" w.name msg;
      []
    | Ok () ->
      let t0 = Unix.gettimeofday () in
      let rec rounds acc =
        let t_round = Unix.gettimeofday () in
        let acc = List.rev_append (run_round ~deadline ~trace ~expected ~first requests) acc in
        let now = Unix.gettimeofday () in
        if now -. t0 +. (now -. t_round) > seconds then List.rev acc
        else rounds acc
      in
      rounds []
  in
  remove_work_dir ();
  let execs = List.concat_map (fun p -> p.execs) passes in
  let failures = List.filter_map (fun e -> e.failure) execs in
  {
    workload = w;
    passes;
    attempted = max 1 (List.length execs);
    failed = (if setup = Ok () then List.length failures else 1);
    failures = List.filteri (fun i _ -> i < 5) failures;
    setup_s;
    digests =
      List.map (fun (r : Workload.request) -> (r.key, Option.value ~default:"" (Hashtbl.find_opt first r.key))) requests;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  per_pass : float list;  (** what [compare] and the spread look at *)
  samples : float list;  (** what the quartiles are printed over *)
}

let outcomes p =
  List.filter_map
    (fun e -> match e.result with Ok o -> Some o | Error _ -> None)
    p.execs

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let median_or_zero xs = if xs = [] then 0. else Stats.median xs

(* A request's own wall-clock time.  The nominal host never takes the
   CPU away, so a wall-clock time counts only up to the CPU time spent
   in it.  A request waits for nothing but its single file read; when
   it runs on one CPU, the rest of its wall-clock time is time the
   hypervisor held the CPU.  A request on several CPUs at once keeps its
   wall-clock time. *)
let running_s (o : Child.outcome) = Float.min o.request_s o.cpu_s

(* A pass's outcomes, times scaled to the nominal host by the host
   reference taken after each request, or after the group of short
   requests it ends. *)
let scaled_outcomes p =
  snd
    (List.fold_right
       (fun e (kernel_s, acc) ->
         let kernel_s = Option.value ~default:kernel_s e.kernel_s in
         match e.result with
         | Error _ -> (kernel_s, acc)
         | Ok o ->
           let s = if kernel_s > 0. then nominal_kernel_s /. kernel_s else 1. in
           let o =
             {
               o with
               request_s = s *. running_s o;
               load_s = s *. Float.min o.load_s o.load_cpu_s;
               cpu_s = s *. o.cpu_s;
             }
           in
           (kernel_s, o :: acc))
       p.execs (0., []))

(* How much a pass's times were scaled, on the whole. *)
let host_scale p =
  let raw = sum running_s (outcomes p) in
  if raw = 0. then 1. else sum (fun o -> o.Child.request_s) (scaled_outcomes p) /. raw

let untraced_passes s = List.filter (fun p -> not p.traced) s.passes
let host_scales s = List.map host_scale (untraced_passes s)

let end_to_end s =
  let passes = untraced_passes s in
  let outcomes = scaled_outcomes in
  let per_pass f = List.map (fun p -> f (outcomes p)) passes in
  let of_passes name unit_ f =
    let v = per_pass f in
    { name; unit_; value = median_or_zero v; per_pass = v; samples = v }
  in
  let times os = List.map (fun o -> o.Child.request_s) os in
  let requests = List.concat_map (fun p -> times (outcomes p)) passes in
  [
    of_passes "setup_s" "s" (sum (fun o -> o.Child.load_s));
    of_passes "pass_s" "s" (sum (fun o -> o.Child.request_s));
    (* The typical request, every request weighing the same in relative
       terms.  Not the median: on analyze-table1 the requests fall in two
       clusters and the median jumps between them from run to run. *)
    {
      name = "request_geomean_s";
      unit_ = "s";
      value = Stats.geomean requests;
      per_pass = per_pass (fun os -> Stats.geomean (times os));
      samples = requests;
    };
    of_passes "cpu_s" "s" (sum (fun o -> o.Child.cpu_s));
    of_passes "peak_heap_mb" "MiB" (fun os ->
        List.fold_left
          (fun acc o -> max acc (float_of_int o.Child.heap_growth_words *. word_bytes /. mib))
          0. os);
  ]

let error_rate s = float_of_int s.failed /. float_of_int s.attempted

(* One traced pass, folded: span time and counter totals by name. *)
type layers = {
  time : (string, float) Hashtbl.t;
  total : (string, float) Hashtbl.t;
  mutable solver_peak_words : float;
  mutable traced_s : float;  (** request spans, summed *)
  mutable self_s : float;  (** request spans minus their children *)
}

let fold_layers p =
  let l =
    {
      time = Hashtbl.create 32;
      total = Hashtbl.create 32;
      solver_peak_words = 0.;
      traced_s = 0.;
      self_s = 0.;
    }
  in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (o : Child.outcome) ->
      let dur (s : Child.span) = s.stop -. s.start in
      Array.iteri
        (fun i (s : Child.span) ->
          if i = 0 then begin
            l.traced_s <- l.traced_s +. dur s;
            l.self_s <- l.self_s +. dur s
          end
          else begin
            add l.time s.name (dur s);
            if s.parent = 0 then l.self_s <- l.self_s -. dur s
          end)
        o.spans;
      List.iter
        (fun (k, v) ->
          if k = "solver.peak_heap_words" then
            l.solver_peak_words <- max l.solver_peak_words v
          else add l.total k v)
        o.counts)
    (outcomes p);
  l

let time l k = Option.value ~default:0. (Hashtbl.find_opt l.time k)
let total l k = Option.value ~default:0. (Hashtbl.find_opt l.total k)
let ratio a b = if b = 0. then 0. else a /. b

(* The census components an optimisation can move; the two parallel-
   drain components are always empty, since the benchmark runs the
   default sequential solver. *)
let census_components =
  [
    "points-to-sets"; "edge-lists"; "node-tables"; "context-tables"; "hobj-tables";
    "unification-forest"; "call-graph-facts"; "worklists"; "memos";
  ]

let checker_codes =
  List.map (fun (i : Pta_checkers.Checkers.info) -> i.code) Pta_checkers.Checkers.all

(* Every per-layer metric: name, unit, and its value on one traced pass.
   Names ending in [_s] are span times. *)
let layer_metrics : (string * string * (layers -> float)) list =
  let span name = (name ^ "_s", "s", fun l -> time l name) in
  let counter name = (name, "count", fun l -> total l name) in
  [
    span "frontend.parse";
    span "mjdk.link";
    span "frontend.lower";
    ( "frontend.parse_mb_per_s", "MB/s",
      fun l -> ratio (total l "frontend.bytes" /. 1e6) (time l "frontend.parse") );
    counter "frontend.ir_meths";
    counter "frontend.ir_vars";
    counter "frontend.ir_invos";
    span "context.resolve";
    span "solver.solve";
    ("solver.alloc_mw", "Mwords", fun l -> total l "solver.alloc_words" /. 1e6);
    ("solver.peak_heap_mb", "MiB", fun l -> l.solver_peak_words *. word_bytes /. mib);
    counter "solver.nodes";
    counter "solver.var_nodes";
    counter "solver.ctxs";
    counter "solver.hctxs";
    counter "solver.hobjs";
    counter "solver.sensitive_vpt";
    counter "solver.cs_call_edges";
    ( "solver.ns_per_fact", "ns",
      fun l -> ratio (time l "solver.solve" *. 1e9) (total l "solver.sensitive_vpt") );
  ]
  @ List.map
      (fun c ->
        ( "solver.heap." ^ c ^ "_mb", "MiB",
          fun l -> total l ("solver.heap." ^ c ^ "_bytes") /. mib ))
      census_components
  @ [
      span "clients.metrics";
      ( "clients.metrics_alloc_mw", "Mwords",
        fun l -> total l "clients.metrics_alloc_words" /. 1e6 );
      span "taint.compile";
      span "taint.analyze";
      counter "taint.flows";
      span "checkers.results";
      span "checkers.render";
      ("checkers.sarif_mb", "MB", fun l -> total l "checkers.sarif_bytes" /. 1e6);
      counter "checkers.diags";
    ]
  @ List.map (fun code -> span ("checkers." ^ code)) checker_codes
  @ [
      counter "checkers.may-fail-cast.witnesses";
      ( "checkers.may-fail-cast.ms_per_witness", "ms",
        fun l ->
          ratio
            (time l "checkers.may-fail-cast" *. 1e3)
            (total l "checkers.may-fail-cast.witnesses") );
      ("request.self_s", "s", fun l -> l.self_s);
    ]

let traced_layers s = List.map fold_layers (List.filter (fun p -> p.traced) s.passes)
let traced_pass_s folded = Stats.median (List.map (fun l -> l.traced_s) folded)

let per_layer s =
  match traced_layers s with
  | [] -> []
  | folded ->
    let metric (name, unit_, f) =
      let v = List.map f folded in
      { name; unit_; value = Stats.median v; per_pass = v; samples = v }
    in
    (* Unscaled, as the traced passes are, and without the time the
       hypervisor held the CPU, which hits one twin and not the other. *)
    let pass_s traced =
      median_or_zero
        (List.map
           (fun p -> sum running_s (outcomes p))
           (List.filter (fun p -> p.traced = traced) s.passes))
    in
    let untraced_pass = pass_s false and traced_pass = pass_s true in
    List.map metric layer_metrics
    @ [
        (let v = 100. *. ratio (traced_pass -. untraced_pass) untraced_pass in
         { name = "trace.overhead_pct"; unit_ = "%"; value = v; per_pass = [ v ]; samples = [ v ] });
      ]

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let pp_dist ppf xs =
  let q1, m, q3 = Stats.quartiles xs in
  Format.fprintf ppf "n=%d q1=%.4g median=%.4g q3=%.4g" (List.length xs) q1 m q3;
  match Stats.tail xs with
  | Some (p, v) -> Format.fprintf ppf " p%d=%.4g" p v
  | None -> ()

let print_summary s =
  let untraced = List.length (List.filter (fun p -> not p.traced) s.passes) in
  Format.printf "== %s: %d passes (%d traced), %d requests, %d failed; set-up %.2fs@."
    s.workload.name untraced
    (List.length s.passes - untraced)
    s.attempted s.failed s.setup_s;
  List.iter (Format.printf "   FAILED %s@.") s.failures;
  List.iter
    (fun m ->
      Format.printf "  %-17s %12.6g %-4s %a@." m.name m.value m.unit_ pp_dist
        (if m.samples = [] then [ 0. ] else m.samples))
    (end_to_end s);
  Format.printf "  %-17s %12.6g %-4s (%d/%d)@." "error_rate" (error_rate s) "" s.failed
    s.attempted;
  (match host_scales s with
  | [] -> ()
  | scales ->
    Format.printf "  %-17s %12.6g %-4s %a (times above: raw times x this)@."
      "host_scale" (Stats.median scales) "" pp_dist scales);
  match per_layer s with
  | [] -> ()
  | layers ->
    let traced_pass = traced_pass_s (traced_layers s) in
    Format.printf "  per layer, median over traced passes (share of the traced pass):@.";
    List.iter
      (fun m ->
        if m.unit_ = "s" then
          Format.printf "    %-40s %12.6g %-6s %5.1f%%  %a@." m.name m.value m.unit_
            (100. *. ratio m.value traced_pass)
            pp_dist m.samples
        else Format.printf "    %-40s %12.6g %s@." m.name m.value m.unit_)
      layers

let metric_json m =
  Json.Obj
    [
      ("value", Json.Float m.value);
      ("unit", Json.String m.unit_);
      ("per_pass", Json.List (List.map (fun v -> Json.Float v) m.per_pass));
    ]

let nproc () =
  match Unix.open_process_in "nproc" with
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value ~default:0 n
  | exception Unix.Unix_error _ -> 0

let results_json ~seed ~seconds ~trace summaries =
  let module V = Pta_version.Version in
  Json.Obj
    [
      ( "stamp",
        Json.Obj
          [
            ("commit", Json.String V.commit);
            ("dirty", Json.Bool V.dirty);
            ("ocaml", Json.String V.ocaml);
            ("profile", Json.String V.profile);
            ("nproc", Json.Int (nproc ()));
          ] );
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ( "workloads",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.workload.name);
                   ("passes", Json.Int (List.length s.passes));
                   ("attempted", Json.Int s.attempted);
                   ("failed", Json.Int s.failed);
                   ("error_rate", Json.Float (error_rate s));
                   ("failures", Json.List (List.map (fun f -> Json.String f) s.failures));
                   ("host_scale", Json.List (List.map (fun v -> Json.Float v) (host_scales s)));
                   ( "end_to_end",
                     Json.Obj (List.map (fun m -> (m.name, metric_json m)) (end_to_end s)) );
                   ( "per_layer",
                     Json.Obj (List.map (fun m -> (m.name, metric_json m)) (per_layer s)) );
                 ])
             summaries) );
    ]

(* The last line of standard output: [correct], [attempted], [failed]
   and [metrics], the result object BENCHMARK.json's command promises.
   Metric names carry a workload prefix when the run covered more than
   one workload. *)
let result_line ~trace summaries =
  let prefix s m =
    match summaries with [ _ ] -> m.name | _ -> s.workload.name ^ "." ^ m.name
  in
  let metrics =
    List.concat_map
      (fun s ->
        List.map
          (fun m ->
            ( prefix s m,
              Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ] ))
          (if trace then per_layer s else end_to_end s))
      summaries
  in
  let attempted = List.fold_left (fun n s -> n + s.attempted) 0 summaries in
  let failed = List.fold_left (fun n s -> n + s.failed) 0 summaries in
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])

let spans_json summaries =
  Json.List
    (List.concat_map
       (fun s ->
         List.concat_map
           (fun p ->
             List.concat_map
               (fun e ->
                 match e.result with
                 | Error _ -> []
                 | Ok o ->
                   Array.to_list
                     (Array.mapi
                        (fun i (sp : Child.span) ->
                          Json.Obj
                            [
                              ("request", Json.Int e.rid);
                              ("workload", Json.String s.workload.name);
                              ("key", Json.String e.req.key);
                              ("id", Json.Int i);
                              ("parent", Json.Int sp.parent);
                              ("name", Json.String sp.name);
                              ("start", Json.Float sp.start);
                              ("end", Json.Float sp.stop);
                            ])
                        o.spans))
               p.execs)
           s.passes)
       summaries)

(* ------------------------------------------------------------------ *)
(* Expected digests                                                    *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> Ok j
  | Error msg -> Error (path ^ ": " ^ msg)
  | exception Sys_error msg -> Error msg

(* Every committed program's report has a digest; a program drawn from
   a seed other than 0 has none and is checked across passes only. *)
let expected_lookup ~seed ~path =
  let doc =
    match read_json path with
    | Ok doc -> doc
    | Error msg ->
      prerr_endline ("expected digests: " ^ msg);
      Json.Null
  in
  fun (w : Workload.t) ->
    if seed <> 0 && w.seeded then fun _ -> `Unchecked
    else fun key ->
      match Option.bind (Json.member w.name doc) (Json.member key) with
      | Some j -> (
        match Json.to_str j with Some d -> `Digest d | None -> `Missing)
      | None -> `Missing

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let run_cmd workloads seed seconds trace spans json expected deadline =
  let workloads =
    match workloads with
    | [] -> Workload.all
    | names ->
      List.map
        (fun n ->
          match Workload.find n with
          | Some w -> w
          | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" n
              (String.concat ", " (List.map (fun w -> w.Workload.name) (Workload.smoke :: Workload.all)));
            exit 2)
        names
  in
  let lookup = expected_lookup ~seed ~path:expected in
  let summaries =
    List.map
      (fun (w : Workload.t) ->
        let s =
          run_workload ~seed ~seconds ~trace ~deadline ~expected:(lookup w) w
        in
        print_summary s;
        s)
      workloads
  in
  Option.iter
    (fun path -> write_file path (Json.to_string (results_json ~seed ~seconds ~trace summaries) ^ "\n"))
    json;
  Option.iter (fun path -> write_file path (Json.to_string (spans_json summaries) ^ "\n")) spans;
  print_endline (result_line ~trace summaries);
  if List.exists (fun s -> s.failed > 0) summaries then exit 1

(* The Datalog reference and the solver must derive the same
   context-sensitive facts. *)
let refimpl_agrees program strategy =
  let module Solver = Pta_solver.Solver in
  let module Refimpl = Pta_refimpl.Refimpl in
  let solver = Solver.solve program strategy in
  let reference = Refimpl.run program strategy in
  let ctx = Solver.ctx_value solver and hctx = Solver.hctx_value solver in
  let set xs = List.sort_uniq compare xs in
  let solver_vpt = ref [] and solver_cg = ref [] and solver_reach = ref [] in
  Solver.iter_var_points_to solver (fun v c objs ->
      Pta_solver.Intset.iter
        (fun o ->
          solver_vpt :=
            (v, ctx c, Solver.hobj_heap solver o, hctx (Solver.hobj_hctx solver o))
            :: !solver_vpt)
        objs);
  Solver.iter_call_edges solver (fun i cc m ec ->
      solver_cg := (i, ctx cc, m, ctx ec) :: !solver_cg);
  Solver.iter_reachable solver (fun m c -> solver_reach := (m, ctx c) :: !solver_reach);
  set !solver_vpt
  = set (Refimpl.fold_var_points_to reference (fun v c h hc acc -> (v, c, h, hc) :: acc) [])
  && set !solver_cg
     = set (Refimpl.fold_call_edges reference (fun i cc m ec acc -> (i, cc, m, ec) :: acc) [])
  && set !solver_reach
     = set (Refimpl.fold_reachable reference (fun m c acc -> (m, c) :: acc) [])

let check_small = List.find (fun w -> w.Workload.name = "check-small") Workload.all

let bless_cmd expected =
  List.iter
    (fun (r : Workload.request) ->
      let source = Workload.source r in
      let program =
        Pta_frontend.Frontend.program_of_sources
          [ (Pta_mjdk.Mjdk.file_name, Pta_mjdk.Mjdk.source); (r.program ^ ".mj", source) ]
      in
      let strategy =
        match Pta_driver.Driver.strategy_of_name program r.analysis with
        | Ok s -> s
        | Error e -> Pta_driver.Driver.report_and_exit e
      in
      if not (refimpl_agrees program strategy) then begin
        Printf.eprintf "bless: solver and Datalog reference disagree on %s; %s left unchanged\n"
          r.key expected;
        exit 1
      end)
    (Workload.requests ~seed:0 check_small);
  let summaries =
    List.map
      (fun w ->
        let s =
          run_workload ~seed:0 ~seconds:0. ~trace:false ~deadline:120.
            ~expected:(fun _ -> `Unchecked) w
        in
        if s.failed > 0 then begin
          print_summary s;
          Printf.eprintf "bless: %s failed; %s left unchanged\n" w.Workload.name expected;
          exit 1
        end;
        s)
      (Workload.all @ [ Workload.smoke ])
  in
  write_file expected
    (Json.to_string
       (Json.Obj
          (List.map
             (fun s ->
               ( s.workload.name,
                 Json.Obj (List.map (fun (k, d) -> (k, Json.String d)) s.digests) ))
             summaries))
    ^ "\n");
  Printf.printf "wrote %s: %d digests\n" expected
    (List.fold_left (fun n s -> n + List.length s.digests) 0 summaries)

(* Verdict for one workload and metric of B against baseline A.  The
   change is judged as a log ratio of the medians, so swapping A and B
   mirrors the verdict: B at 0.8 A reads -20% one way and +25% the
   other, but its log ratio is the same size both ways. *)
let verdict ~bound ~lower_better a b =
  let spread = max (Stats.spread a) (Stats.spread b) in
  let ma = Stats.median a and mb = Stats.median b in
  let change = if ma = mb then 0. else log (mb /. ma) in
  let worse = if lower_better then change else -.change in
  let limit = log (1. +. bound) in
  let v =
    if spread > bound then "unresolved"
    else if worse > limit then "regressed"
    else if worse < -.limit then "improved"
    else "unchanged"
  in
  (v, exp change -. 1., spread)

let compare_cmd benchmark a_path b_path =
  let load p = match read_json p with Ok j -> j | Error m -> prerr_endline m; exit 2 in
  let bench = load benchmark and a = load a_path and b = load b_path in
  let get path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path in
  let list j = Option.value ~default:[] (Option.bind j Json.to_list) in
  let str j = Option.value ~default:"" (Option.bind j Json.to_str) in
  let floats j = List.filter_map Json.to_float (list j) in
  let bounds =
    List.map
      (fun m ->
        ( str (Json.member "name" m),
          Option.value ~default:0. (Option.bind (Json.member "bound" m) Json.to_float),
          str (Json.member "better" m) = "lower" ))
      (list (Json.member "end_to_end" bench))
  in
  let workloads doc =
    List.map (fun w -> (str (Json.member "name" w), w)) (list (Json.member "workloads" doc))
  in
  let regressed = ref false in
  Printf.printf "%-16s %-17s %-10s %9s %8s %7s\n" "workload" "metric" "verdict" "change" "spread" "bound";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (workloads b) with
      | None -> Printf.printf "%-16s missing from %s\n" name b_path
      | Some wb ->
        List.iter
          (fun (metric, bound, lower_better) ->
            let pp w = floats (get [ "end_to_end"; metric; "per_pass" ] w) in
            match (pp wa, pp wb) with
            | [], _ | _, [] -> Printf.printf "%-16s %-17s missing\n" name metric
            | va, vb ->
              let v, change, spread = verdict ~bound ~lower_better va vb in
              if v = "regressed" then regressed := true;
              Printf.printf "%-16s %-17s %-10s %+8.1f%% %7.1f%% %6.1f%%\n" name metric v
                (100. *. change) (100. *. spread) (100. *. bound))
          bounds;
        let rate w = Option.value ~default:0. (Option.bind (Json.member "error_rate" w) Json.to_float) in
        let v =
          if rate wb > rate wa then "regressed"
          else if rate wb < rate wa then "improved"
          else "unchanged"
        in
        if v = "regressed" then regressed := true;
        Printf.printf "%-16s %-17s %-10s %8.4f -> %.4f\n" name "error_rate" v (rate wa) (rate wb))
    (workloads a);
  if !regressed then exit 1

open Cmdliner

let expected_arg =
  Arg.(
    value
    & opt string "benchmark/expected.json"
    & info [ "expected" ] ~docv:"FILE" ~doc:"Expected digests of the committed programs' reports.")

let run_term =
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload to run (repeatable; default: the four in BENCHMARK.json).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Input seed: 0 uses the committed profile seeds; any other N draws check-small's programs from generator seeds derived from N, and the other workloads keep the committed programs.")
  in
  let seconds =
    Arg.(
      value & opt float 30.
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Keep sending passes while the next one is expected to end within $(docv) seconds.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: follow every untraced pass with a traced one and report the per-layer metrics.")
  in
  let spans =
    Arg.(
      value & opt (some string) None
      & info [ "spans" ] ~docv:"FILE" ~doc:"Write the traced passes' spans to $(docv) as JSON.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full results, per-pass values included, to $(docv).")
  in
  let deadline =
    Arg.(
      value & opt float 120.
      & info [ "deadline" ] ~docv:"S" ~doc:"Kill a request's child after $(docv) seconds and count it failed.")
  in
  Term.(const run_cmd $ workloads $ seed $ seconds $ trace $ spans $ json $ expected_arg $ deadline)

let compare_term =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let benchmark =
    Arg.(
      value & opt file "BENCHMARK.json"
      & info [ "benchmark" ] ~docv:"FILE" ~doc:"Where the bounds are read from.")
  in
  Term.(const compare_cmd $ benchmark $ file 0 "A.json" $ file 1 "B.json")

let () =
  let cmds =
    [
      Cmd.v (Cmd.info "run" ~doc:"Run workloads and print their metrics.") run_term;
      Cmd.v
        (Cmd.info "bless" ~doc:"Rewrite the expected digests, once the Datalog reference agrees on check-small.")
        Term.(const bless_cmd $ expected_arg);
      Cmd.v
        (Cmd.info "compare" ~doc:"Judge result file B against baseline A, metric by metric.")
        compare_term;
      Cmd.v
        (Cmd.info "child" ~doc:"Internal: do one job for $(b,run), read from stdin.")
        Term.(const child_cmd $ const ());
    ]
  in
  exit (Cmd.eval (Cmd.group (Cmd.info "main" ~doc:"End-to-end pointsto benchmark.") cmds))
