(** Tests for the pta_obs observability layer and its integration with
    the solver: counter determinism and pinned values, budget
    cancellation from a tick callback, memory tracking and the census. *)

module Solver = Pta_solver.Solver
module Budget = Pta_obs.Budget
module Run_stats = Pta_obs.Run_stats
module Json = Pta_obs.Json
module Driver = Pta_driver.Driver

let tiny_program () =
  Pta_workloads.Workloads.program
    (Option.get (Pta_workloads.Profile.by_name "tiny"))

let collect_run ?(analysis = "S-2obj+H") program =
  match Driver.run ~collect_stats:true program ~analysis with
  | Ok r -> Option.get r.Driver.stats
  | Error e -> Alcotest.failf "driver error: %a" Driver.pp_error e

(* Every non-time field of two identical runs must agree: the solver is
   deterministic, and so are the counters it keeps. *)
let counters_deterministic_test () =
  let program = tiny_program () in
  let s1 = collect_run program and s2 = collect_run program in
  let check name f = Alcotest.(check int) name (f s1) (f s2) in
  check "iterations" (fun s -> s.Run_stats.iterations);
  check "n_nodes" (fun s -> s.Run_stats.n_nodes);
  check "n_edges" (fun s -> s.Run_stats.n_edges);
  check "n_ctxs" (fun s -> s.Run_stats.n_ctxs);
  check "n_hctxs" (fun s -> s.Run_stats.n_hctxs);
  check "n_hobjs" (fun s -> s.Run_stats.n_hobjs);
  check "sensitive_vpt_size" (fun s -> s.Run_stats.sensitive_vpt_size);
  check "triggers" (fun s -> s.Run_stats.triggers);
  check "delta_total" (fun s -> s.Run_stats.delta_total);
  check "max_delta" (fun s -> s.Run_stats.max_delta);
  Alcotest.(check (list string))
    "same phases"
    (List.map fst s1.Run_stats.phases)
    (List.map fst s2.Run_stats.phases)

(* The --stats-json counters on test/cli/sample.mj under S-2obj+H,
   pinned exactly: a miscounting edge, trigger or delta site shows up
   here, not just as run-to-run drift. *)
let counters_pinned_test () =
  let program =
    match Driver.load_files [ "cli/sample.mj" ] with
    | Ok p -> p
    | Error e -> Alcotest.failf "load: %a" Driver.pp_error e
  in
  let json = Run_stats.to_json (collect_run program) in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (option int))
        name (Some expected)
        (Option.bind (Json.member name json) Json.to_int))
    [
      ("iterations", 22); ("n_nodes", 22); ("n_edges", 13); ("n_ctxs", 4);
      ("n_hctxs", 2); ("n_hobjs", 5); ("sensitive_vpt_size", 15);
      ("triggers", 8); ("delta_total", 18); ("max_delta", 1);
    ]

(* Cancelling the budget from a tick callback must abort the solve
   within one worklist iteration, with a populated abort payload. *)
let budget_cancellation_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let budget = Budget.unlimited () in
  let iterations = ref 0 in
  let cancel_at = 10 in
  Budget.on_tick budget (fun n ->
      iterations := n;
      if n = cancel_at then Budget.cancel budget);
  let config = { Solver.Config.default with budget } in
  match Solver.solve ~config program (factory program) with
  | _ -> Alcotest.fail "expected Solver.Timeout"
  | exception Solver.Timeout abort ->
    (* The tick right after the cancelling callback raises before
       calling it again: the abort happens within one iteration. *)
    Alcotest.(check int) "within one iteration" cancel_at !iterations;
    Alcotest.(check int) "payload iterations" cancel_at abort.Budget.iterations;
    Alcotest.(check bool) "payload nodes" true (abort.Budget.nodes > 0);
    Alcotest.(check bool) "payload elapsed" true (abort.Budget.elapsed_s >= 0.)

(* The JSON printer/parser pair must round-trip structurally, including
   escapes and numeric edge cases. *)
let json_roundtrip_test () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\r \x01 é");
        ("i", Json.Int (-42));
        ("big", Json.Int max_int);
        ("f", Json.Float 0.1);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error msg -> Alcotest.failf "printed JSON does not parse: %s" msg
  | Ok v' -> Alcotest.(check bool) "structurally equal" true (v = v')

(* The printer's bytes: every control character 0x00-0x1f, a quote and
   a backslash are escaped, while DEL and non-ASCII bytes pass through.
   Both expected strings come from the printer that escaped one
   character at a time. *)
let json_escape_bytes_test () =
  let v =
    Json.Obj
      [
        ( "k\"\\\x1f",
          Json.List
            [
              Json.String
                ("a" ^ String.init 32 Char.chr ^ "\"\\ \xc3\xa9 z\x7f");
              Json.String "";
            ] );
      ]
  in
  let escaped =
    "\"a\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\ \195\169 z\127\""
  in
  Alcotest.(check string) "compact"
    ("{\"k\\\"\\\\\\u001f\":[" ^ escaped ^ ",\"\"]}")
    (Json.to_string ~indent:false v);
  Alcotest.(check string) "indented"
    ("{\n  \"k\\\"\\\\\\u001f\": [\n    " ^ escaped ^ ",\n    \"\"\n  ]\n}\n")
    (Json.to_string v);
  (* Nesting deeper than one run of the printer's space padding. *)
  let rec nest d = if d = 0 then Json.Int 1 else Json.List [ nest (d - 1) ] in
  let lines = String.split_on_char '\n' (Json.to_string (nest 40)) in
  Alcotest.(check string) "deepest line" (String.make 80 ' ' ^ "1")
    (List.nth lines 40)

(* A value printed at a depth is the text it has inside the whole
   document printed at once, without the document's trailing newline. *)
let json_depth_test () =
  let inner =
    Json.Obj
      [
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("s", Json.String "x") ] ]);
        ("e", Json.List []);
      ]
  in
  let at depth v =
    let buf = Buffer.create 64 in
    Json.to_buffer ~depth buf v;
    Buffer.contents buf
  in
  Alcotest.(check string) "member at depth 1"
    (Json.to_string (Json.Obj [ ("a", Json.Int 1); ("inner", inner) ]))
    ("{\n  \"a\": 1,\n  \"inner\": " ^ at 1 inner ^ "\n}\n");
  Alcotest.(check string) "item at depth 2"
    (Json.to_string (Json.Obj [ ("l", Json.List [ inner; Json.Null ]) ]))
    ("{\n  \"l\": [\n    " ^ at 2 inner ^ ",\n    null\n  ]\n}\n")

(* ------------------------------------------------------------------ *)
(* Memory: Memstats clamping / codec / exception safety, loop sampling *)
(* ------------------------------------------------------------------ *)

module Memstats = Pta_obs.Memstats
module Census = Pta_obs.Census

let snap_with heap : Memstats.snapshot =
  {
    Memstats.minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_words = heap;
    top_heap_words = heap;
    minor_heap_words = 262144;
    peak_rss_kb = None;
  }

(* A sampled peak can lag (no sample taken) but never undercut what the
   interval's endpoints saw. *)
let memstats_clamp_test () =
  let before = snap_with 1000 and after = snap_with 500 in
  let d = Memstats.diff ~peak:100 ~before ~after () in
  Alcotest.(check int) "clamped to endpoints" 1000 d.Memstats.peak_heap_words;
  let d = Memstats.diff ~before ~after () in
  Alcotest.(check int) "no sample: endpoints" 1000 d.Memstats.peak_heap_words;
  let d = Memstats.diff ~peak:9999 ~before ~after () in
  Alcotest.(check int) "genuine peak kept" 9999 d.Memstats.peak_heap_words

let memstats_json_test () =
  let d =
    {
      Memstats.minor_allocated_words = 12345.5;
      promoted_delta_words = 100.;
      major_allocated_words = 600.25;
      minor_collections_delta = 3;
      major_collections_delta = 1;
      compactions_delta = 0;
      heap_words_after = 4096;
      peak_heap_words = 8192;
      minor_heap_words = 262144;
      peak_rss_kb = Some 20480;
    }
  in
  let json = Memstats.to_json d in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option (float 0.))) name (Some v)
        (Option.bind (Json.member name json) Json.to_float))
    [
      ("minor_allocated_words", 12345.5); ("promoted_words", 100.);
      ("major_allocated_words", 600.25); ("minor_collections", 3.);
      ("major_collections", 1.); ("compactions", 0.); ("heap_words", 4096.);
      ("peak_heap_words", 8192.); ("minor_heap_words", 262144.);
      ("peak_rss_kb", 20480.);
    ];
  Alcotest.(check bool) "unreadable RSS is null" true
    (Json.member "peak_rss_kb" (Memstats.to_json { d with peak_rss_kb = None })
    = Some Json.Null);
  (* Where the file exists (Linux), the snapshot reads a positive VmHWM. *)
  if Sys.file_exists "/proc/self/status" then
    Alcotest.(check bool) "VmHWM read" true
      (match (Memstats.snapshot ()).Memstats.peak_rss_kb with
      | Some kb -> kb > 0
      | None -> false)

(* A large major-heap allocation that dies before the fixpoint must
   show in the tracker's peak: a tick callback plants a ~2M-word block at
   iteration 3 and drops it at iteration 1100, past the first sample
   that [Memstats.sampling] (the one [Driver.run] uses) takes at 1024
   (gen tiny under S-2obj+H runs about 1,350 iterations).
   The tracker reads the heap only on ticks and at the end, and the heap
   is collected until the block is gone before the solve ends (4.14 gives
   the block's memory back only when it compacts; 5.1 frees a large
   block in the sweep of a later cycle than the one that finds it dead),
   so only the per-tick sample can see it. *)
let solver_peak_sampling_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let planted_words = 2_000_000 in
  (* Earlier tests' garbage must not be in the heap the tracker starts
     from, or it could stand in for the block. *)
  Gc.full_major ();
  Gc.full_major ();
  let tracker = Memstats.start_tracking () in
  let planted = ref None and dropped = ref false in
  let config = Solver.Config.make () in
  let budget = config.Solver.Config.budget in
  Budget.on_tick budget (fun n ->
      if n = 3 then begin
        planted := Some (Bytes.create (planted_words * (Sys.word_size / 8)));
        (* OCaml 5.1 refreshes [heap_words] when a major cycle ends. *)
        Gc.full_major ()
      end;
      if n = 1100 then begin
        planted := None;
        dropped := true;
        Gc.compact ();
        Gc.full_major ()
      end);
  Memstats.sampling tracker budget (fun () ->
      ignore (Solver.solve ~config program (factory program)));
  ignore !planted;
  let d = Memstats.finish tracker in
  Alcotest.(check bool) "solve ran past the drop" true !dropped;
  (* Relative to the end, not absolute: earlier tests in the same
     process may leave a heap larger than the block. *)
  Alcotest.(check bool)
    "peak saw the planted block" true
    (d.Memstats.peak_heap_words - d.Memstats.heap_words_after
    >= planted_words / 2)

(* Callbacks on one budget all fire, in the order they were installed;
   a scoped one fires only inside its scope, also when the scope
   raises. *)
let budget_hooks_test () =
  let b = Budget.unlimited () in
  let log = ref [] in
  let hook name n = log := (name, n) :: !log in
  Budget.on_tick b (hook "a");
  Budget.on_tick b (hook "b");
  Budget.tick b;
  Budget.with_tick b (hook "c") (fun () -> Budget.tick b);
  (try Budget.with_tick b (hook "d") (fun () -> Budget.check b; raise Exit)
   with Exit -> ());
  Budget.tick b;
  Alcotest.(check (list (pair string int)))
    "firing order"
    [
      ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("c", 2); ("a", 3); ("b", 3);
      ("d", 3); ("a", 4); ("b", 4);
    ]
    (List.rev !log)

(* [Driver.run ~collect_stats:true] samples on the budget's ticks next
   to the callbacks already there, and takes its sampler away when it
   returns: afterwards a tick of the budget allocates exactly what a
   tick of a fresh budget holding only the test's callback does, where
   a left-over sampler would allocate a [Gc.quick_stat] record every
   1024 ticks. *)
let driver_sampler_scoped_test () =
  let config = Solver.Config.make () in
  let budget = config.Solver.Config.budget in
  let ticks = ref 0 in
  let count _ = incr ticks in
  Budget.on_tick budget count;
  (match
     Driver.run ~config ~collect_stats:true (tiny_program ())
       ~analysis:"S-2obj+H"
   with
  | Ok r ->
    Alcotest.(check int)
      "installed callback fired on every tick"
      (Option.get r.Driver.stats).Run_stats.iterations !ticks
  | Error e -> Alcotest.failf "driver error: %a" Driver.pp_error e);
  let fresh = Budget.unlimited () in
  Budget.on_tick fresh count;
  let minor_cost b =
    let a = Gc.minor_words () in
    for _ = 1 to 4096 do
      Budget.tick b
    done;
    Gc.minor_words () -. a
  in
  ignore (minor_cost fresh);
  ignore (minor_cost budget);
  Alcotest.(check (float 0.))
    "sampler gone after the solve" (minor_cost fresh) (minor_cost budget)

(* ------------------------------------------------------------------ *)
(* Census                                                              *)
(* ------------------------------------------------------------------ *)

let solve_for_census ?(workload = "tiny") ?(analysis = "S-2obj+H") () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name workload))
  in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  Solver.solve program (factory program)

let census_invariants_test () =
  let solver = solve_for_census () in
  let c = Solver.census solver in
  Alcotest.(check bool) "has components" true (c.Census.components <> []);
  List.iter
    (fun (comp : Census.component) ->
      Alcotest.(check bool)
        (comp.Census.comp_name ^ " retained >= 0")
        true
        (comp.Census.retained_words >= 0);
      Alcotest.(check bool)
        (comp.Census.comp_name ^ " retained <= unshared")
        true
        (comp.Census.retained_words <= comp.Census.unshared_words))
    c.Census.components;
  (* The retained figures are one deduplicated walk, bounded by the
     process's major heap at walk time (which also holds the program,
     the test runner and free space). *)
  Alcotest.(check bool)
    "sum retained <= live heap" true
    (Census.total_retained_words c <= c.Census.process_heap_words);
  (* The flagship components must own something on a solved state. *)
  List.iter
    (fun name ->
      match Census.find c name with
      | None -> Alcotest.failf "component %s missing" name
      | Some comp ->
        Alcotest.(check bool) (name ^ " non-empty") true
          (comp.Census.retained_words > 0))
    [ "points-to-sets"; "node-tables"; "context-tables" ];
  match c.Census.set_hist with
  | None -> Alcotest.fail "set histogram missing"
  | Some h -> Alcotest.(check bool) "hist populated" true (Census.hist_total h > 0)

(* Two independent solves must census identically (same components,
   same word counts, same histogram): the walk sees only deterministic
   structure, never addresses or clocks.  [process_heap_words] is
   process-global state and is excluded — the CLI determinism test
   (two fresh processes) covers the full document. *)
let census_deterministic_test () =
  let survey () =
    let c = Solver.census (solve_for_census ()) in
    ( Json.to_string (Census.components_to_json c.Census.components),
      c.Census.set_hist )
  in
  let comps1, hist1 = survey () in
  let comps2, hist2 = survey () in
  Alcotest.(check string) "components byte-identical" comps1 comps2;
  Alcotest.(check bool) "histograms identical" true (hist1 = hist2)

(* The [cyclic] workload funnels many variables through shared copy
   structure, so its Patricia-tree points-to sets must exhibit real
   structural sharing: materializing every set privately (unshared)
   would cost strictly more than what is retained. *)
let census_sharing_test () =
  let solver = solve_for_census ~workload:"cyclic" () in
  let c = Solver.census solver in
  match Census.find c "points-to-sets" with
  | None -> Alcotest.fail "points-to-sets component missing"
  | Some comp ->
    Alcotest.(check bool) "sharing factor > 1" true
      (Census.sharing_factor comp > 1.)

(* The component codec bench snapshots embed per cell: a solved
   census's components survive printing and parsing unchanged. *)
let census_json_roundtrip_test () =
  let cs = (Solver.census (solve_for_census ())).Census.components in
  let decoded =
    Result.bind
      (Json.of_string (Json.to_string (Census.components_to_json cs)))
      Census.components_of_json_list
  in
  match decoded with
  | Error e -> Alcotest.failf "census round-trip: %s" e
  | Ok cs' -> Alcotest.(check bool) "identical" true (cs = cs')

let census_json_rejects_test () =
  let decode s = Result.bind (Json.of_string s) Census.components_of_json_list in
  let rejects label s =
    match decode s with
    | Ok _ -> Alcotest.failf "%s: accepted %s" label s
    | Error _ -> ()
  in
  (match decode {|[{"name": "edge-lists", "retained_words": 3, "unshared_words": 4}]|} with
  | Ok [ c ] -> Alcotest.(check int) "retained" 3 c.Census.retained_words
  | Ok _ | Error _ -> Alcotest.fail "well-formed component rejected");
  rejects "negative retained_words"
    {|[{"name": "edge-lists", "retained_words": -1, "unshared_words": 4}]|};
  rejects "missing name" {|[{"retained_words": 3, "unshared_words": 4}]|}

let refimpl_budget_test () =
  let program = tiny_program () in
  let strategy = Pta_context.Strategies.get "S-2obj+H" program in
  let budget = Budget.of_seconds 1e-9 in
  match Pta_refimpl.Refimpl.run ~budget program strategy with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted _ -> ()

let tests =
  [
    Alcotest.test_case "counters deterministic" `Quick counters_deterministic_test;
    Alcotest.test_case "counters pinned on sample.mj" `Quick counters_pinned_test;
    Alcotest.test_case "budget cancellation" `Quick budget_cancellation_test;
    Alcotest.test_case "budget callbacks fire in order" `Quick budget_hooks_test;
    Alcotest.test_case "driver sampler scoped to the solve" `Quick
      driver_sampler_scoped_test;
    Alcotest.test_case "json round-trip" `Quick json_roundtrip_test;
    Alcotest.test_case "json escapes every control byte" `Quick
      json_escape_bytes_test;
    Alcotest.test_case "json printed at a depth nests" `Quick json_depth_test;
    Alcotest.test_case "refimpl budget" `Quick refimpl_budget_test;
    Alcotest.test_case "memstats peak clamping" `Quick memstats_clamp_test;
    Alcotest.test_case "memstats JSON encoding" `Quick memstats_json_test;
    Alcotest.test_case "solver loop samples the peak" `Quick
      solver_peak_sampling_test;
    Alcotest.test_case "census invariants" `Quick census_invariants_test;
    Alcotest.test_case "census deterministic" `Quick census_deterministic_test;
    Alcotest.test_case "census set sharing on cyclic" `Quick
      census_sharing_test;
    Alcotest.test_case "census JSON round-trip" `Quick
      census_json_roundtrip_test;
    Alcotest.test_case "census JSON rejects bad components" `Quick
      census_json_rejects_test;
  ]
