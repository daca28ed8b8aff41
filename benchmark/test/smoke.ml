(* Smoke test of the benchmark itself, on the two-request [smoke]
   workload with one pass:

   - every metric BENCHMARK.json names is printed, with its unit;
   - the host's speed was measured, so the times are scaled;
   - spans nest, and a request's direct layer spans cover all but 5%
     of it;
   - a tampered expected digest fails the run and raises error_rate;
   - a child killed at the deadline counts as failed;
   - [compare A B] and [compare B A] give mirror verdicts.

   Usage: smoke MAIN_EXE BENCHMARK_JSON EXPECTED_JSON *)

module Json = Pta_obs.Json

let main_exe, benchmark_json, expected_json =
  match Sys.argv with
  | [| _; m; b; e |] -> (m, b, e)
  | _ ->
    prerr_endline "usage: smoke MAIN_EXE BENCHMARK_JSON EXPECTED_JSON";
    exit 2

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let read path = In_channel.with_open_bin path In_channel.input_all

let json_of_string what s =
  match Json.of_string s with
  | Ok j -> j
  | Error msg -> failwith (what ^ ": " ^ msg)

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let list j = Option.value ~default:[] (Option.bind j Json.to_list)
let str j = Option.value ~default:"" (Option.bind j Json.to_str)
let num j = Option.value ~default:nan (Option.bind j Json.to_float)

(* Run the benchmark on the smoke workload; return its exit code and the
   object on the last line of its standard output. *)
let run_smoke extra =
  let args =
    Array.of_list
      ([ main_exe; "run"; "--workload"; "smoke"; "--seconds"; "0" ] @ extra)
  in
  let ic = Unix.open_process_args_in main_exe args in
  let out = In_channel.input_all ic in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  (code, json_of_string "result line" last)

let metric_names section =
  let bench = json_of_string benchmark_json (read benchmark_json) in
  List.map
    (fun m -> (str (Json.member "name" m), str (Json.member "unit" m)))
    (list (Json.member section bench))

let check_metrics what section line =
  List.iter
    (fun (name, unit_) ->
      let m = member [ "metrics"; name ] line in
      check (Printf.sprintf "%s: %s is printed" what name) (m <> None);
      check
        (Printf.sprintf "%s: %s is in %s" what name unit_)
        (str (member [ "metrics"; name; "unit" ] line) = unit_))
    (metric_names section)

let workload_result json_file =
  List.hd (list (member [ "workloads" ] (json_of_string json_file (read json_file))))

let untraced () =
  let results = "smoke-results.json" in
  let code, line = run_smoke [ "--expected"; expected_json; "--json"; results ] in
  check "untraced run exits 0" (code = 0);
  check "untraced run is correct"
    (member [ "correct" ] line = Some (Json.Bool true));
  check_metrics "untraced" "end_to_end" line;
  (* A scale of exactly 1 is what a pass without a host reference gets. *)
  let scales = list (Json.member "host_scale" (workload_result results)) in
  check "the pass's host scale was measured"
    (List.length scales = 1
    && List.for_all (fun s -> num (Some s) > 0. && num (Some s) <> 1.) scales)

let dur s = num (Json.member "end" s) -. num (Json.member "start" s)

let traced () =
  let spans_file = "smoke-spans.json" in
  let code, line =
    run_smoke
      [ "--expected"; expected_json; "--trace"; "1"; "--spans"; spans_file ]
  in
  check "traced run exits 0" (code = 0);
  check_metrics "traced" "per_layer" line;
  let spans = list (Some (json_of_string spans_file (read spans_file))) in
  let requests =
    List.sort_uniq compare
      (List.map (fun s -> num (Json.member "request" s)) spans)
  in
  check "spans cover both traced requests" (List.length requests = 2);
  List.iter
    (fun rid ->
      let mine =
        Array.of_list
          (List.filter (fun s -> num (Json.member "request" s) = rid) spans)
      in
      let by_id = Array.make (Array.length mine) Json.Null in
      Array.iter
        (fun s -> by_id.(int_of_float (num (Json.member "id" s))) <- s)
        mine;
      let layers = ref 0. in
      Array.iteri
        (fun i s ->
          let p = int_of_float (num (Json.member "parent" s)) in
          if i = 0 then check "span 0 is the request" (p = -1)
          else begin
            check "parent precedes child" (p >= 0 && p < i);
            let parent = by_id.(p) in
            check
              (Printf.sprintf "%s nests in %s" (str (Json.member "name" s))
                 (str (Json.member "name" parent)))
              (num (Json.member "start" s) >= num (Json.member "start" parent)
              && num (Json.member "end" s) <= num (Json.member "end" parent));
            if p = 0 then layers := !layers +. dur s
          end)
        by_id;
      (* The request's own self-time is what no layer span covers: an
         untimed gap between layers shows up here. *)
      let request = dur by_id.(0) in
      check "the layer spans cover the request span to within 5%"
        (request -. !layers <= 0.05 *. request))
    requests

let error_rate json_file = num (Json.member "error_rate" (workload_result json_file))

let tampered () =
  let expected = json_of_string expected_json (read expected_json) in
  let tamper = function
    | Json.Obj ws ->
      Json.Obj
        (List.map
           (fun (w, digests) ->
             match (w, digests) with
             | "smoke", Json.Obj ((k, _) :: rest) ->
               (w, Json.Obj ((k, Json.String "0000") :: rest))
             | _ -> (w, digests))
           ws)
    | j -> j
  in
  let file = "smoke-tampered.json" and results = "smoke-tampered-results.json" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string (tamper expected)));
  let code, line = run_smoke [ "--expected"; file; "--json"; results ] in
  check "tampered digest exits non-zero" (code <> 0);
  check "tampered digest is not correct"
    (member [ "correct" ] line = Some (Json.Bool false));
  check "tampered digest raises error_rate" (error_rate results > 0.)

let deadline () =
  let results = "smoke-deadline-results.json" in
  let code, line =
    run_smoke [ "--expected"; expected_json; "--deadline"; "0.1"; "--json"; results ]
  in
  check "deadline kill exits non-zero" (code <> 0);
  check "deadline kill counts as failed" (num (member [ "failed" ] line) >= 1.);
  check "deadline kill raises error_rate" (error_rate results > 0.)

(* Run [compare a b]; return its exit code and its verdict by metric. *)
let run_compare a b =
  let args = [| main_exe; "compare"; "--benchmark"; benchmark_json; a; b |] in
  let ic = Unix.open_process_args_in main_exe args in
  let rows = String.split_on_char '\n' (In_channel.input_all ic) in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let verdicts =
    List.filter_map
      (fun row ->
        match String.split_on_char ' ' row |> List.filter (( <> ) "") with
        | "w" :: metric :: verdict :: _ -> Some (metric, verdict)
        | _ -> None)
      rows
  in
  (code, verdicts)

(* Per-pass values of A, and the factor B's values are scaled by, with
   the verdict expected for B against A under the bounds (25% for
   times, 10% for peak heap).  B at 0.78 A is 22% lower but A is 28%
   higher: the same distance from the bound, whichever is the baseline. *)
let compare_cases =
  [
    ("setup_s", [ 1.0; 1.0; 1.0 ], 0.78, "improved");
    ("pass_s", [ 2.0; 2.1; 2.0 ], 1.1, "unchanged");
    ("request_geomean_s", [ 1.0; 2.0; 3.0 ], 1.0, "unresolved");
    ("cpu_s", [ 2.0; 2.0; 2.0 ], 0.9, "unchanged");
    ("peak_heap_mb", [ 100.; 100.; 100. ], 1.2, "regressed");
  ]

let mirror = function "improved" -> "regressed" | "regressed" -> "improved" | v -> v

let compare_mirrors () =
  let write file scale =
    let metrics =
      List.map
        (fun (name, values, factor, _) ->
          let f = if scale then factor else 1. in
          ( name,
            Json.Obj
              [ ("per_pass", Json.List (List.map (fun v -> Json.Float (v *. f)) values)) ]
          ))
        compare_cases
    in
    let w =
      Json.Obj
        [ ("name", Json.String "w"); ("error_rate", Json.Float 0.); ("end_to_end", Json.Obj metrics) ]
    in
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (Json.to_string (Json.Obj [ ("workloads", Json.List [ w ]) ])))
  in
  write "smoke-compare-a.json" false;
  write "smoke-compare-b.json" true;
  let code_ab, ab = run_compare "smoke-compare-a.json" "smoke-compare-b.json" in
  let code_ba, ba = run_compare "smoke-compare-b.json" "smoke-compare-a.json" in
  check "compare exits 1 on a regressed row, both ways" (code_ab = 1 && code_ba = 1);
  List.iter
    (fun (name, _, _, expected) ->
      let v = List.assoc_opt name ab and v' = List.assoc_opt name ba in
      check (Printf.sprintf "compare A B: %s is %s" name expected) (v = Some expected);
      check
        (Printf.sprintf "compare B A: %s is %s" name (mirror expected))
        (v' = Some (mirror expected)))
    compare_cases

let () =
  untraced ();
  traced ();
  tampered ();
  deadline ();
  compare_mirrors ();
  if !failures > 0 then exit 1
