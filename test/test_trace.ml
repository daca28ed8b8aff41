(** Tests for the trace layer: Chrome-trace JSON schema, span nesting
    balance, determinism of rule firing counts, null-sink transparency,
    ring-buffer drops vs exact aggregates, and gauge emission. *)

module Solver = Pta_solver.Solver
module Trace = Pta_obs.Trace
module Json = Pta_obs.Json
module Driver = Pta_driver.Driver
module Metrics = Pta_clients.Metrics

let tiny_program () =
  Pta_workloads.Workloads.program
    (Option.get (Pta_workloads.Profile.by_name "tiny"))

let solve_traced ?(analysis = "S-2obj+H") program =
  let trace = Trace.create () in
  let config = Solver.Config.make ~trace () in
  match Driver.run ~config program ~analysis with
  | Ok r -> (r.Driver.solver, trace)
  | Error e -> Alcotest.failf "driver error: %a" Driver.pp_error e

(* Every exported event must carry the fields Chrome/Perfetto require:
   "name", a known "ph", a numeric "ts"; "X" events a numeric "dur";
   "B"/"X"/"C" a "cat". *)
let chrome_schema_test () =
  let _, trace = solve_traced (tiny_program ()) in
  let json = Trace.to_chrome_json trace in
  (* Round-trip through the printer to check it serializes as valid JSON
     too. *)
  let json =
    match Json.of_string (Json.to_string json) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  in
  let events =
    match json with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "trace JSON is not an array"
  in
  Alcotest.(check bool) "nonempty" true (events <> []);
  List.iter
    (fun ev ->
      let get name =
        match Json.member name ev with
        | Some v -> v
        | None -> Alcotest.failf "event lacks %S" name
      in
      (match Json.to_str (get "name") with
      | Some _ -> ()
      | None -> Alcotest.fail "name is not a string");
      (match Json.to_float (get "ts") with
      | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.)
      | None -> Alcotest.fail "ts is not a number");
      match Json.to_str (get "ph") with
      | Some (("B" | "E" | "X" | "C") as ph) ->
        if ph <> "E" then
          (match Json.to_str (get "cat") with
          | Some _ -> ()
          | None -> Alcotest.failf "%s event lacks a cat" ph);
        if ph = "X" then (
          match Json.to_float (get "dur") with
          | Some dur -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.)
          | None -> Alcotest.fail "X event lacks a numeric dur")
      | Some ph -> Alcotest.failf "unknown ph %S" ph
      | None -> Alcotest.fail "ph is not a string")
    events

(* B and E events must pair up like parentheses: the running depth never
   goes negative and ends at zero.  (No drops on the tiny program, so
   the retained timeline is the whole timeline.) *)
let nesting_balance_test () =
  let _, trace = solve_traced (tiny_program ()) in
  Alcotest.(check int) "no drops" 0 (Trace.dropped trace);
  let events =
    match Trace.to_chrome_json trace with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "trace JSON is not an array"
  in
  let depth = ref 0 in
  List.iter
    (fun ev ->
      match Option.bind (Json.member "ph" ev) Json.to_str with
      | Some "B" -> incr depth
      | Some "E" ->
        decr depth;
        Alcotest.(check bool) "depth never negative" true (!depth >= 0)
      | _ -> ())
    events;
  Alcotest.(check int) "all spans closed" 0 !depth

(* The engines are deterministic, so per-name firing and delta counts of
   two identical runs must be identical (times, of course, differ — so
   re-sort away the profile's by-time order before comparing). *)
let shape stats =
  List.sort compare
    (List.map
       (fun (s : Trace.stat) ->
         (s.Trace.stat_cat, s.Trace.stat_name, s.Trace.events, s.Trace.delta))
       stats)

let solver_determinism_test () =
  let program = tiny_program () in
  let _, t1 = solve_traced program in
  let _, t2 = solve_traced program in
  Alcotest.(check bool)
    "identical (cat, name, events, delta) profiles" true
    (shape (Trace.profile t1) = shape (Trace.profile t2))

let datalog_determinism_test () =
  let program =
    Pta_frontend.Frontend.program_of_string ~file:"<t>"
      {|
      class A { method id(x) { return x; } }
      class Main {
        static method main() {
          var a = new A;
          var b = a.id(a);
        }
      }
      |}
  in
  let run program =
    let trace = Trace.create () in
    let strategy = Pta_context.Strategies.get "1obj" program in
    ignore (Pta_refimpl.Refimpl.run ~trace program strategy);
    trace
  in
  let t1 = run program and t2 = run program in
  let rules t =
    List.filter (fun (c, _, _, _) -> c = "rule") (shape (Trace.profile t))
  in
  Alcotest.(check bool) "some rule spans" true (rules t1 <> []);
  Alcotest.(check bool)
    "identical rule firing counts" true
    (rules t1 = rules t2);
  (* On tiny, the virtual-call rule derives facts. *)
  let vcall_delta =
    List.fold_left
      (fun acc (c, name, _, delta) ->
        if c = "rule" && name = "vcall" then acc + delta else acc)
      0
      (shape (Trace.profile (run (tiny_program ()))))
  in
  Alcotest.(check bool) "vcall rule derived facts on tiny" true
    (vcall_delta > 0)

(* Tracing must not change what the solver computes: same metric bundle
   with a live sink, the null sink, and no sink at all. *)
let null_sink_transparent_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let bare = Metrics.compute (Solver.solve program (factory program)) in
  let with_null =
    let config = Solver.Config.make ~trace:Trace.null () in
    Metrics.compute (Solver.solve ~config program (factory program))
  in
  let with_live =
    let config = Solver.Config.make ~trace:(Trace.create ()) () in
    Metrics.compute (Solver.solve ~config program (factory program))
  in
  Alcotest.(check bool) "null sink transparent" true (bare = with_null);
  Alcotest.(check bool) "live sink transparent" true (bare = with_live)

(* Span-scoped allocation accounting: an alloc-enabled sink must
   attribute a span's fresh words to its aggregate and carry them into
   the Chrome-trace args of the closing event. *)
let alloc_accounting_test () =
  let trace = Trace.create ~alloc:true () in
  Alcotest.(check bool) "alloc enabled" true (Trace.alloc_enabled trace);
  let sink = ref [] in
  Trace.span trace ~cat:"t" "hungry" (fun () ->
      sink := List.init 10_000 (fun i -> i));
  Alcotest.(check bool) "sink lives" true (List.length !sink = 10_000);
  (match Trace.profile trace with
  | [ s ] ->
    Alcotest.(check bool)
      "allocation attributed" true
      (Trace.stat_alloc_words s >= 3. *. 10_000.)
  | stats -> Alcotest.failf "expected one aggregate, got %d" (List.length stats));
  let events =
    match Trace.to_chrome_json trace with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "expected a JSON array"
  in
  Alcotest.(check bool)
    "closing event carries alloc args" true
    (List.exists
       (fun ev ->
         match Option.bind (Json.member "args" ev) (Json.member "alloc_minor_w") with
         | Some (Json.Float w) -> w > 0.
         | _ -> false)
       events)

(* The null sink's guarded operations must allocate nothing at all: the
   minor-words cost of a loop of null-sink calls must equal the cost of
   an empty loop measured the same way (the measurement itself boxes a
   constant number of floats, identical in both runs). *)
let null_zero_alloc_test () =
  let minor_cost f =
    let a = Gc.minor_words () in
    f ();
    let b = Gc.minor_words () in
    b -. a
  in
  let n = 10_000 in
  let empty () = for _ = 1 to n do () done in
  let null_ops () =
    for _ = 1 to n do
      Trace.begin_span Trace.null ~cat:"t" "x";
      Trace.end_span Trace.null;
      Trace.counter Trace.null ~cat:"t" "x" 1.0;
      ignore (Trace.alloc_mark Trace.null)
    done
  in
  (* Warm both closures so neither run pays one-time setup. *)
  empty ();
  null_ops ();
  let baseline = minor_cost empty in
  let cost = minor_cost null_ops in
  Alcotest.(check (float 0.)) "null path allocation-free" baseline cost

(* Once the ring hits its limit the oldest events are evicted — but the
   per-name aggregates must keep counting every completed span. *)
let ring_drops_exact_aggregates_test () =
  let trace = Trace.create ~limit:16 () in
  let n = 1000 in
  for _ = 1 to n do
    Trace.span trace ~cat:"t" "tick" (fun () -> ())
  done;
  Alcotest.(check bool) "retained at most limit" true (Trace.n_events trace <= 16);
  Alcotest.(check bool) "dropped something" true (Trace.dropped trace > 0);
  match Trace.profile trace with
  | [ s ] ->
    Alcotest.(check string) "name" "tick" s.Trace.stat_name;
    Alcotest.(check int) "exact event count despite drops" n s.Trace.events
  | stats -> Alcotest.failf "expected one aggregate, got %d" (List.length stats)

(* The driver samples the four Table-1 gauges into the trace at
   fixpoint. *)
let gauges_test () =
  let _, trace = solve_traced (tiny_program ()) in
  let events =
    match Trace.to_chrome_json trace with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "trace JSON is not an array"
  in
  let gauge name =
    List.exists
      (fun ev ->
        Option.bind (Json.member "cat" ev) Json.to_str = Some "gauge"
        && Option.bind (Json.member "ph" ev) Json.to_str = Some "C"
        && Option.bind (Json.member "name" ev) Json.to_str = Some name)
      events
  in
  List.iter
    (fun name -> Alcotest.(check bool) name true (gauge name))
    [ "contexts"; "avg objs per var"; "reachable methods"; "call-graph edges" ];
  (* Edge-kind spans from the native solver must be present too. *)
  let solver_span name =
    List.exists
      (fun ev ->
        Option.bind (Json.member "cat" ev) Json.to_str = Some "solver"
        && Option.bind (Json.member "name" ev) Json.to_str = Some name)
      events
  in
  List.iter
    (fun name -> Alcotest.(check bool) name true (solver_span name))
    [ "move"; "load"; "store"; "vcall"; "scall" ]

let tests =
  [
    Alcotest.test_case "chrome JSON schema" `Quick chrome_schema_test;
    Alcotest.test_case "span nesting balance" `Quick nesting_balance_test;
    Alcotest.test_case "solver profile deterministic" `Quick
      solver_determinism_test;
    Alcotest.test_case "datalog rule counts deterministic" `Quick
      datalog_determinism_test;
    Alcotest.test_case "null sink transparent" `Quick null_sink_transparent_test;
    Alcotest.test_case "span allocation accounting" `Quick
      alloc_accounting_test;
    Alcotest.test_case "null path allocation-free" `Quick null_zero_alloc_test;
    Alcotest.test_case "ring drops, aggregates exact" `Quick
      ring_drops_exact_aggregates_test;
    Alcotest.test_case "fixpoint gauges emitted" `Quick gauges_test;
  ]
