(** Tests for the bench-history subsystem: the ledger record codec and
    its strict rejections, the append-only ledger loader, the
    median+MAD changepoint check against the committed fixtures, the
    bisect search, and byte-determinism of the rendered trend page. *)

module Json = Pta_obs.Json
module Snapshot = Pta_report.Bench_snapshot
module Trend_page = Pta_report.Trend_page
module Record = Pta_bench_history.Record
module Ledger = Pta_bench_history.Ledger
module Trend = Pta_bench_history.Trend
module Bisect = Pta_bench_history.Bisect
module Census = Pta_obs.Census

let clean_fixture = "history/clean.jsonl"
let regressed_fixture = "history/regressed.jsonl"
let regressed_component_fixture = "history/regressed_component.jsonl"
let mixed_host_fixture = "history/mixed_host.jsonl"

let load_fixture path =
  match Ledger.load path with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "fixture %s failed to load: %s" path e

let build ?(dirty = false) commit =
  { Record.semver = "1.0.0"; commit; dirty; ocaml = "5.1.0"; profile = "dev" }

let host =
  { Record.os_type = "Unix"; word_size = 64; hostname = "testhost" }

let cell ?(timed_out = false) ?nodes ?peak_heap_words ?time_hist
    ?(heap_components = []) ~time_s benchmark analysis =
  {
    Snapshot.benchmark;
    analysis;
    timed_out;
    time_s;
    iterations = 100;
    nodes;
    peak_heap_words;
    time_hist;
    heap_components;
  }

let record ?timestamp ?note ~seq ?(dirty = false) ~commit cells =
  {
    Record.seq;
    timestamp;
    note;
    timeout_s = 90.;
    build = build ~dirty commit;
    host;
    cells;
  }

(* A synthetic stable-then-step series as in-memory records: [n_good]
   records around [good], then [n_bad] records around [bad]. *)
let step_records ?(cellname = ("bench", "ana")) ~good ~n_good ~bad ~n_bad () =
  let b, a = cellname in
  List.init (n_good + n_bad) (fun i ->
      let t =
        if i < n_good then good +. (0.01 *. float_of_int (i mod 3))
        else bad +. (0.01 *. float_of_int (i mod 2))
      in
      record ~seq:i
        ~commit:(Printf.sprintf "c%04d" i)
        [ cell ~time_s:t ~peak_heap_words:1_000_000 b a ])

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

let comps =
  [
    { Census.comp_name = "points-to-sets"; retained_words = 100_000;
      unshared_words = 320_000 };
    { Census.comp_name = "edge-lists"; retained_words = 50_000;
      unshared_words = 50_000 };
  ]

let record_roundtrip_test () =
  let hist = { Snapshot.bounds = [ 0.5; 1.0 ]; counts = [ 1; 2; 0 ]; sum = 2.4 } in
  let r =
    record ~seq:3 ~timestamp:1700000000. ~note:"ci" ~dirty:true ~commit:"abc1234"
      [
        cell ~time_s:1.5 ~nodes:4000 ~peak_heap_words:2_000_000 ~time_hist:hist
          ~heap_components:comps "antlr" "S-2obj+H";
        cell ~timed_out:true ~time_s:90. "antlr" "2full+H";
      ]
  in
  match Record.of_json (Record.to_json r) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
    Alcotest.(check bool) "identical" true (r = r');
    Alcotest.(check string) "dirty label" "abc1234-dirty"
      (Record.commit_label r'.Record.build)

let record_rejects_test () =
  let ok_json = Record.to_json (record ~seq:0 ~commit:"abc" []) in
  let patch name v = function
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
    | j -> j
  in
  let expect_error what json =
    match Record.of_json json with
    | Ok _ -> Alcotest.failf "%s: unexpectedly accepted" what
    | Error _ -> ()
  in
  (match Record.of_json ok_json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "baseline record rejected: %s" e);
  expect_error "future schema" (patch "schema_version" (Json.Int 99) ok_json);
  expect_error "negative seq" (patch "seq" (Json.Int (-1)) ok_json);
  expect_error "mistyped build" (patch "build" (Json.String "x") ok_json);
  expect_error "missing cells" (patch "cells" Json.Null ok_json);
  (* A malformed histogram inside a cell must reject the whole record. *)
  let bad_hist =
    Json.Obj
      [
        ("bounds", Json.List [ Json.Float 1.0; Json.Float 0.5 ]);
        ("counts", Json.List [ Json.Int 1; Json.Int 2; Json.Int 0 ]);
        ("sum", Json.Float 0.);
      ]
  in
  let r_json =
    Record.to_json
      (record ~seq:0 ~commit:"abc" [ cell ~time_s:1.0 "b" "a" ])
  in
  let with_bad_hist =
    match r_json with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "cells" then
               match v with
               | Json.List [ Json.Obj cf ] ->
                 (k, Json.List [ Json.Obj (cf @ [ ("time_hist", bad_hist) ]) ])
               | _ -> (k, v)
             else (k, v))
           fields)
    | j -> j
  in
  expect_error "descending hist bounds" with_bad_hist

let of_snapshot_test () =
  let snap cells pointsto = { Snapshot.timeout_s = 90.; pointsto; cells } in
  let scell = cell ~nodes:100 ~peak_heap_words:4096 ~time_s:0.5 "antlr" "1call" in
  (* Stamp-less snapshots are refused: the record would be untraceable. *)
  (match
     Record.of_snapshot ~seq:0 ~host (snap [ scell ] None)
   with
  | Ok _ -> Alcotest.fail "stamp-less snapshot unexpectedly accepted"
  | Error _ -> ());
  (* A -dirty suffixed commit marks the record dirty, suffix stripped. *)
  let stamp =
    Json.Obj
      [
        ("version", Json.String "1.0.0");
        ("commit", Json.String "abc1234-dirty");
        ("ocaml", Json.String "5.1.0");
        ("profile", Json.String "dev");
      ]
  in
  match Record.of_snapshot ~seq:7 ~host (snap [ scell ] (Some stamp)) with
  | Error e -> Alcotest.failf "stamped snapshot rejected: %s" e
  | Ok r ->
    Alcotest.(check string) "bare commit" "abc1234" r.Record.build.Record.commit;
    Alcotest.(check bool) "dirty" true r.Record.build.Record.dirty;
    Alcotest.(check bool) "cells carried verbatim" true (r.Record.cells = [ scell ])

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let temp_ledger () = Filename.temp_file "pta_ledger" ".jsonl"

let ledger_append_test () =
  let path = temp_ledger () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      (* append re-stamps seq: 0, then 1, whatever the caller passed *)
      let r0 =
        match
          Ledger.append ~path (record ~seq:42 ~commit:"aaa" [])
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "append: %s" e
      in
      Alcotest.(check int) "first seq" 0 r0.Record.seq;
      let r1 =
        match Ledger.append ~path (record ~seq:0 ~commit:"bbb" []) with
        | Ok r -> r
        | Error e -> Alcotest.failf "append: %s" e
      in
      Alcotest.(check int) "second seq" 1 r1.Record.seq;
      match Ledger.load path with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok rs ->
        Alcotest.(check int) "two records" 2 (List.length rs);
        Alcotest.(check bool) "identical round-trip" true (rs = [ r0; r1 ]))

let ledger_strict_test () =
  let write path lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let line seq = Ledger.to_line (record ~seq ~commit:"aaa" []) in
  let expect_load_error what lines =
    let path = temp_ledger () in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write path lines;
        (match Ledger.load path with
        | Ok _ -> Alcotest.failf "%s: unexpectedly loaded" what
        | Error e ->
          Alcotest.(check bool)
            (what ^ ": error names the file and line") true
            (String.length e > String.length path
            && String.sub e 0 (String.length path) = path));
        (* a corrupt ledger also refuses appends *)
        match Ledger.append ~path (record ~seq:0 ~commit:"zzz" []) with
        | Ok _ -> Alcotest.failf "%s: append to corrupt ledger" what
        | Error _ -> ())
  in
  expect_load_error "bad JSON" [ line 0; "{not json" ];
  expect_load_error "non-increasing seq" [ line 1; line 1 ];
  expect_load_error "decreasing seq" [ line 1; line 0 ];
  let future =
    Json.to_string ~indent:false
      (match Record.to_json (record ~seq:2 ~commit:"aaa" []) with
      | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, if k = "schema_version" then Json.Int 99 else v))
             fields)
      | j -> j)
  in
  expect_load_error "future schema" [ line 0; future ];
  (* blank lines are tolerated; anything else is not *)
  let path = temp_ledger () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path [ line 0; ""; "  "; line 3 ];
      match Ledger.load path with
      | Error e -> Alcotest.failf "blank lines rejected: %s" e
      | Ok rs -> Alcotest.(check int) "two records" 2 (List.length rs))

let fixtures_load_test () =
  let clean = load_fixture clean_fixture in
  Alcotest.(check int) "clean records" 7 (List.length clean);
  let reg = load_fixture regressed_fixture in
  Alcotest.(check int) "regressed records" 8 (List.length reg);
  (* the newly added analysis appears only in the later records *)
  let with_2objh =
    List.filter
      (fun r -> Record.cell_find r ~benchmark:"antlr" ~analysis:"2obj+H" <> None)
      clean
  in
  Alcotest.(check int) "2obj+H appears late" 3 (List.length with_2objh)

(* Records share the snapshot's one schema version: a ledger line of an
   older version is refused, and the error names the version and the
   line. *)
let old_record_version_refused_test () =
  let v3 =
    {|{"schema_version":3,"seq":0,"timeout_s":90.0,
       "build":{"semver":"1.0.0","commit":"abc","dirty":false,
                "ocaml":"5.1.0","profile":"release"},
       "host":{"os_type":"Unix","word_size":64,"hostname":"h"},
       "cells":[{"benchmark":"b","analysis":"a","timed_out":false,
                 "time_s":1.0,"iterations":10}]}|}
  in
  (match Result.bind (Json.of_string v3) Record.of_json with
  | Ok _ -> Alcotest.fail "v3 record accepted"
  | Error e ->
    Alcotest.(check bool)
      ("names the version: " ^ e)
      true
      (Helpers.contains_substring e "schema_version 3"));
  let path = temp_ledger () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (String.concat " " (String.split_on_char '\n' v3) ^ "\n"));
      match Ledger.load path with
      | Ok _ -> Alcotest.fail "ledger with a v3 line loaded"
      | Error e ->
        Alcotest.(check bool)
          ("names line and version: " ^ e)
          true
          (Helpers.contains_substring e ":1: unsupported schema_version 3"))

(* ------------------------------------------------------------------ *)
(* Changepoint detection                                               *)
(* ------------------------------------------------------------------ *)

let window_stats_test () =
  let p = Trend.default_params in
  (* too little history: no opinion *)
  Alcotest.(check bool)
    "two points: none" true
    (Trend.window_stats p Trend.Time [ 1.0; 1.1 ] = None);
  (* below the noise floor, time has no opinion either *)
  Alcotest.(check bool)
    "sub-noise: none" true
    (Trend.window_stats p Trend.Time [ 0.01; 0.011; 0.012 ] = None);
  (* ... but heap does: it has no noise floor *)
  Alcotest.(check bool)
    "heap has no floor" true
    (Trend.window_stats p Trend.Heap [ 0.01; 0.011; 0.012 ] <> None);
  (* a constant series still gets a non-degenerate threshold from the
     relative floor (MAD = 0 must not flag jitter) *)
  match Trend.window_stats p Trend.Time [ 2.0; 2.0; 2.0; 2.0; 2.0 ] with
  | None -> Alcotest.fail "constant series: no stats"
  | Some s ->
    Alcotest.(check (float 1e-9)) "median" 2.0 s.Trend.median;
    Alcotest.(check (float 1e-9)) "mad" 0.0 s.Trend.mad;
    Alcotest.(check (float 1e-9))
      "threshold = median * (1 + tol)"
      (2.0 *. (1. +. (p.Trend.tolerances.Snapshot.time_tol_pct /. 100.)))
      s.Trend.threshold

let check_clean_test () =
  match Trend.check_latest (load_fixture clean_fixture) with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok flags -> Alcotest.(check int) "no flags" 0 (List.length flags)

let check_regressed_test () =
  match Trend.check_latest (load_fixture regressed_fixture) with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok flags ->
    let breach =
      List.find_map
        (function
          | Trend.Breach f
            when f.benchmark = "antlr" && f.analysis = "S-2obj+H" ->
            Some (f.metric, f.seq)
          | _ -> None)
        flags
    in
    (match breach with
    | None -> Alcotest.fail "planted time regression not flagged"
    | Some (metric, seq) ->
      Alcotest.(check bool) "time metric" true (metric = Trend.Time);
      Alcotest.(check int) "flagged at the head" 7 seq);
    let timeout_flagged =
      List.exists
        (function
          | Trend.Became_timeout f ->
            f.benchmark = "luindex" && f.analysis = "2type+H" && f.seq = 7
          | _ -> false)
        flags
    in
    Alcotest.(check bool) "new timeout flagged" true timeout_flagged;
    Alcotest.(check int) "nothing else flagged" 2 (List.length flags)

(* The component fixture plants a points-to-sets growth in its latest
   record while time and peak heap stay flat: the only flag must be the
   census-component metric. *)
let check_component_test () =
  let records = load_fixture regressed_component_fixture in
  match Trend.check_latest records with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok flags -> (
    Alcotest.(check int) "exactly one flag" 1 (List.length flags);
    match flags with
    | [ Trend.Breach f ] ->
      Alcotest.(check bool)
        "component metric" true
        (f.metric = Trend.Heap_component "points-to-sets");
      Alcotest.(check string) "metric name" "heap:points-to-sets"
        (Trend.metric_name f.metric);
      Alcotest.(check int) "flagged at the head" 5 f.seq
    | _ -> Alcotest.fail "expected a Breach flag")

let metric_of_string_test () =
  Alcotest.(check bool) "time" true (Trend.metric_of_string "time" = Ok Trend.Time);
  Alcotest.(check bool) "heap" true (Trend.metric_of_string "heap" = Ok Trend.Heap);
  Alcotest.(check bool)
    "heap:component" true
    (Trend.metric_of_string "heap:points-to-sets"
    = Ok (Trend.Heap_component "points-to-sets"));
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Trend.metric_of_string "walrus"))

(* Bisecting the component metric over the same fixture must find the
   planted step, and its git handoff must gate only that metric. *)
let bisect_component_test () =
  let records = load_fixture regressed_component_fixture in
  let metric = Trend.Heap_component "points-to-sets" in
  match
    Bisect.run ~metric ~benchmark:"antlr" ~analysis:"S-2obj+H" records
  with
  | Error e -> Alcotest.failf "bisect: %s" e
  | Ok None -> Alcotest.fail "component bisect saw no regression"
  | Ok (Some o) ->
    Alcotest.(check int) "first bad is the planted step" 5
      o.Bisect.first_bad.Record.seq;
    (match Bisect.git_script o ~ledger:"l.jsonl" ~baseline_file:"base.json" with
    | Error e -> Alcotest.failf "git script: %s" e
    | Ok script ->
      Alcotest.(check bool)
        "script gates the component tolerance" true
        (Helpers.contains_substring script "--heap-component-tol");
      Alcotest.(check bool)
        "other metrics wide open" true
        (Helpers.contains_substring script "--time-tol 1000000"))

let check_new_analysis_test () =
  (* A cell with < min_points history must pass, whatever its value. *)
  let records =
    (step_records ~good:1.0 ~n_good:5 ~bad:1.0 ~n_bad:0 ()
    |> List.map (fun r ->
           if r.Record.seq >= 4 then
             {
               r with
               Record.cells =
                 cell ~time_s:50.0 "bench" "new-ana" :: r.Record.cells;
             }
           else r))
  in
  match Trend.check_latest records with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok flags -> Alcotest.(check int) "new analysis passes" 0 (List.length flags)

(* ------------------------------------------------------------------ *)
(* Bisect                                                              *)
(* ------------------------------------------------------------------ *)

let bisect_finds_step_test () =
  let records = load_fixture regressed_fixture in
  match
    Bisect.run ~metric:Trend.Time ~benchmark:"antlr" ~analysis:"S-2obj+H"
      records
  with
  | Error e -> Alcotest.failf "bisect: %s" e
  | Ok None -> Alcotest.fail "bisect saw no regression"
  | Ok (Some o) ->
    Alcotest.(check int) "first bad is the planted step" 5
      o.Bisect.first_bad.Record.seq;
    (match o.Bisect.last_good with
    | Some g -> Alcotest.(check int) "last good" 4 g.Record.seq
    | None -> Alcotest.fail "no last good");
    (* O(log n): strictly fewer probes than records *)
    Alcotest.(check bool) "bisected, not scanned" true
      (List.length o.Bisect.probes < List.length records)

let bisect_clean_test () =
  match
    Bisect.run ~metric:Trend.Time ~benchmark:"antlr" ~analysis:"S-2obj+H"
      (load_fixture clean_fixture)
  with
  | Error e -> Alcotest.failf "bisect: %s" e
  | Ok (Some _) -> Alcotest.fail "clean fixture bisected to a regression"
  | Ok None -> ()

let bisect_errors_test () =
  let records = load_fixture clean_fixture in
  (match
     Bisect.run ~metric:Trend.Time ~benchmark:"nope" ~analysis:"nope" records
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absent cell did not error");
  match Bisect.run ~metric:Trend.Time ~benchmark:"x" ~analysis:"y" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty ledger did not error"

let git_script_test () =
  let records = step_records ~good:1.0 ~n_good:5 ~bad:2.0 ~n_bad:3 () in
  let o =
    match
      Bisect.run ~metric:Trend.Time ~benchmark:"bench" ~analysis:"ana" records
    with
    | Ok (Some o) -> o
    | Ok None -> Alcotest.fail "no regression found"
    | Error e -> Alcotest.failf "bisect: %s" e
  in
  (match Bisect.git_script o ~ledger:"hist.jsonl" ~baseline_file:"base.json" with
  | Error e -> Alcotest.failf "git_script: %s" e
  | Ok script ->
    let has needle =
      let n = String.length needle and m = String.length script in
      let rec go i = i + n <= m && (String.sub script i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "spans good..bad" true
      (has "git bisect start c0005 c0004");
    Alcotest.(check bool) "re-measures the one cell" true
      (has "--benchmarks bench --analyses ana");
    Alcotest.(check bool) "build failures skip" true (has "exit 125"));
  (* the baseline snapshot reconstructs the last-good cell *)
  let good = Option.get o.Bisect.last_good in
  (match Bisect.baseline_snapshot good ~benchmark:"bench" ~analysis:"ana" with
  | Error e -> Alcotest.failf "baseline_snapshot: %s" e
  | Ok snap ->
    Alcotest.(check int) "one cell" 1 (List.length snap.Snapshot.cells);
    let c = List.hd snap.Snapshot.cells in
    Alcotest.(check (float 1e-9))
      "good time carried" 1.01 c.Snapshot.time_s;
    Alcotest.(check (option int))
      "peak heap carried" (Some 1_000_000) c.Snapshot.peak_heap_words);
  (* a dirty endpoint refuses the handoff: the hash does not name the tree *)
  let dirty_records =
    List.map
      (fun r ->
        if r.Record.seq = 4 then
          { r with Record.build = { r.Record.build with Record.dirty = true } }
        else r)
      records
  in
  match
    Bisect.run ~metric:Trend.Time ~benchmark:"bench" ~analysis:"ana"
      dirty_records
  with
  | Ok (Some o) -> (
    match
      Bisect.git_script o ~ledger:"hist.jsonl" ~baseline_file:"base.json"
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "dirty endpoint did not refuse git handoff")
  | _ -> Alcotest.fail "dirty-record bisect did not find the step"

(* ------------------------------------------------------------------ *)
(* Trend page determinism                                              *)
(* ------------------------------------------------------------------ *)

let render_fixture path =
  Trend_page.render (Trend.page ~ledger:path (load_fixture path))

let render_deterministic_test () =
  List.iter
    (fun path ->
      let a = render_fixture path and b = render_fixture path in
      Alcotest.(check bool)
        (path ^ ": two renders byte-identical")
        true (a = b);
      Alcotest.(check bool)
        (path ^ ": index.html first")
        true
        (match a with ("index.html", _) :: _ -> true | _ -> false))
    [ clean_fixture; regressed_fixture ]

let render_structure_test () =
  let files = render_fixture regressed_fixture in
  (* one SVG per cell x metric, plus the index: 3 cells x 3 metrics + 1 *)
  Alcotest.(check int) "file count" 10 (List.length files);
  let index = List.assoc "index.html" files in
  let has needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* the flagged cell's sparkline carries the changepoint marker color *)
  let flagged_svg =
    List.assoc
      (Trend_page.svg_file_name ~benchmark:"antlr" ~analysis:"S-2obj+H"
         ~metric:"time (s)")
      files
  in
  Alcotest.(check bool) "flag marker present" true (has "#c0392b" flagged_svg);
  let clean_svg =
    List.assoc
      (Trend_page.svg_file_name ~benchmark:"antlr" ~analysis:"1call"
         ~metric:"time (s)")
      files
  in
  Alcotest.(check bool) "no flag marker on the clean cell" false
    (has "#c0392b" clean_svg);
  (* dirty builds are visible on the page, as is the ledger provenance *)
  Alcotest.(check bool) "dirty stamp surfaced" true (has "d0002-dirty" index);
  Alcotest.(check bool) "ledger named" true (has regressed_fixture index)

(* ------------------------------------------------------------------ *)
(* Mixed-host ledgers                                                  *)
(* ------------------------------------------------------------------ *)

(* The fixture's latest record comes from a slower CI host, 2.5x the
   dev host's times: it has no history of its own, so neither trend nor
   bisect may judge it against the dev records. *)
let mixed_host_test () =
  let records = load_fixture mixed_host_fixture in
  (match Trend.check_latest records with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok flags ->
    Alcotest.(check int) "CI record not judged by dev records" 0
      (List.length flags));
  (match
     Bisect.run ~metric:Trend.Time ~benchmark:"antlr" ~analysis:"S-2obj+H"
       records
   with
  | Error e ->
    Alcotest.(check bool)
      ("anchors on the CI host only: " ^ e)
      true
      (Helpers.contains_substring e "only 1 finished")
  | Ok _ -> Alcotest.fail "bisect anchored on another host's records");
  (* The same ledger under one host name flags the slow record. *)
  let one_host = List.map (fun r -> { r with Record.host }) records in
  match Trend.check_latest one_host with
  | Ok flags ->
    Alcotest.(check bool) "one host: time flagged at seq 5" true
      (List.exists
         (function
           | Trend.Breach f -> f.metric = Trend.Time && f.seq = 5
           | Trend.Became_timeout _ -> false)
         flags)
  | Error e -> Alcotest.failf "check failed: %s" e

let tests =
  [
    Alcotest.test_case "record JSON round-trip" `Quick record_roundtrip_test;
    Alcotest.test_case "record codec rejects" `Quick record_rejects_test;
    Alcotest.test_case "record from snapshot" `Quick of_snapshot_test;
    Alcotest.test_case "old record version refused" `Quick
      old_record_version_refused_test;
    Alcotest.test_case "ledger append re-stamps seq" `Quick ledger_append_test;
    Alcotest.test_case "ledger load is strict" `Quick ledger_strict_test;
    Alcotest.test_case "committed fixtures load" `Quick fixtures_load_test;
    Alcotest.test_case "window stats" `Quick window_stats_test;
    Alcotest.test_case "clean fixture passes check" `Quick check_clean_test;
    Alcotest.test_case "planted regression flagged" `Quick check_regressed_test;
    Alcotest.test_case "component regression flagged" `Quick
      check_component_test;
    Alcotest.test_case "metric names parse" `Quick metric_of_string_test;
    Alcotest.test_case "new analysis not flagged" `Quick check_new_analysis_test;
    Alcotest.test_case "bisect finds the step" `Quick bisect_finds_step_test;
    Alcotest.test_case "bisect the component metric" `Quick
      bisect_component_test;
    Alcotest.test_case "bisect on clean history" `Quick bisect_clean_test;
    Alcotest.test_case "bisect error cases" `Quick bisect_errors_test;
    Alcotest.test_case "git handoff script" `Quick git_script_test;
    Alcotest.test_case "render is byte-deterministic" `Quick
      render_deterministic_test;
    Alcotest.test_case "mixed-host ledger" `Quick mixed_host_test;
    Alcotest.test_case "render structure and markers" `Quick
      render_structure_test;
  ]
