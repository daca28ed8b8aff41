(* Schema check for `pointsto analyze --stats-json`: the emitted file
   must be valid JSON carrying the documented keys with the documented
   types, the four phases, and a `wall_time_s` that is the sum of the
   `setup` and `fixpoint` phases.  Given a second file from another run
   on the same input, every key except the wall-clock, GC and
   build-stamp ones must also be equal, and so must the solve's
   `memory.minor_allocated_words` and the load's
   `memory.load_minor_words`, which depend on neither the GC settings
   nor the run: `check_stats_json FILE [FILE2]`.  Given the `--trace`
   file of the same run, its "phase" spans and the file's phases must
   name the same phases, each span's `dur` within 1 us of the phase's
   seconds: `check_stats_json FILE --trace TRACE`. *)

module Json = Pta_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let read path =
    let contents =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string contents with
    | Ok json -> json
    | Error msg -> fail "%s: not valid JSON: %s" path msg
  in
  let path, other, trace =
    match Sys.argv with
    | [| _; path |] -> (path, None, None)
    | [| _; path; "--trace"; trace |] -> (path, None, Some trace)
    | [| _; path; other |] -> (path, Some other, None)
    | _ -> fail "usage: check_stats_json FILE [FILE2 | --trace TRACE]"
  in
  let json = read path in
  let get name =
    match Json.member name json with
    | Some v -> v
    | None -> fail "%s: key %S missing" path name
  in
  let check name kind decode =
    match decode (get name) with
    | Some _ -> ()
    | None -> fail "%s: key %S is not %s" path name kind
  in
  check "analysis" "a string" Json.to_str;
  check "wall_time_s" "a number" Json.to_float;
  List.iter
    (fun name -> check name "an integer" Json.to_int)
    [
      "iterations"; "n_nodes"; "n_edges"; "n_ctxs"; "n_hctxs"; "n_hobjs";
      "sensitive_vpt_size"; "triggers"; "delta_total"; "max_delta";
      "sccs_collapsed"; "nodes_unified"; "stale_skipped";
    ];
  let phases =
    match Json.to_obj (get "phases") with
    | None -> fail "%s: key \"phases\" is not an object" path
    | Some phases ->
      List.map
        (fun (name, v) ->
          match Json.to_float v with
          | Some s -> (name, s)
          | None -> fail "%s: phase %S is not a number" path name)
        phases
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name phases) then
        fail "%s: phases lacks a %S entry" path name)
    [ "load"; "setup"; "fixpoint"; "client" ];
  (* The solve's wall time is its two phases, read off one clock. *)
  (let wall = Option.get (Json.to_float (get "wall_time_s")) in
   let sum = List.assoc "setup" phases +. List.assoc "fixpoint" phases in
   if Float.abs (wall -. sum) > 4. *. epsilon_float *. Float.max 1. wall then
     fail "%s: wall_time_s %.17g is not setup + fixpoint = %.17g" path wall sum);
  (* --stats-json implies a GC tracker and the build stamp. *)
  (match Json.to_obj (get "memory") with
  | None -> fail "%s: key \"memory\" is not an object" path
  | Some fields ->
    List.iter
      (fun name ->
        match Option.bind (List.assoc_opt name fields) Json.to_float with
        | Some _ -> ()
        | None -> fail "%s: memory.%s missing or not a number" path name)
      [
        "load_minor_words"; "minor_allocated_words"; "major_allocated_words";
        "peak_heap_words"; "major_collections"; "minor_heap_words";
      ];
    (* Null where the process's resident set cannot be read. *)
    match List.assoc_opt "peak_rss_kb" fields with
    | Some Json.Null -> ()
    | Some v when Json.to_int v <> None -> ()
    | _ -> fail "%s: memory.peak_rss_kb missing or not an integer or null" path);
  (match Json.to_obj (get "pointsto") with
  | None -> fail "%s: key \"pointsto\" is not an object" path
  | Some stamp ->
    List.iter
      (fun name ->
        match Option.bind (List.assoc_opt name stamp) Json.to_str with
        | Some _ -> ()
        | None -> fail "%s: pointsto.%s missing or not a string" path name)
      [ "version"; "commit"; "ocaml"; "profile" ]);
  Option.iter
    (fun other ->
      let varying = [ "wall_time_s"; "phases"; "memory"; "pointsto" ] in
      let stable j =
        List.filter
          (fun (k, _) -> not (List.mem k varying))
          (Option.value ~default:[] (Json.to_obj j))
      in
      let other_json = read other in
      let a = stable json and b = stable other_json in
      if List.map fst a <> List.map fst b then
        fail "%s and %s: different keys" path other;
      List.iter2
        (fun (k, va) (_, vb) ->
          if va <> vb then
            fail "%s and %s: %S differs: %s vs %s" path other k
              (Json.to_string ~indent:false va)
              (Json.to_string ~indent:false vb))
        a b;
      List.iter
        (fun key ->
          let words j =
            Option.bind (Json.member "memory" j) (Json.member key)
            |> Option.fold ~none:"missing" ~some:(Json.to_string ~indent:false)
          in
          let wa = words json and wb = words other_json in
          if wa <> wb then
            fail "%s and %s: memory.%s differs: %s vs %s" path other key wa wb)
        [ "minor_allocated_words"; "load_minor_words" ])
    other;
  Option.iter
    (fun trace ->
      let spans =
        match read trace with
        | Json.List events ->
          List.filter_map
            (fun ev ->
              let str name = Option.bind (Json.member name ev) Json.to_str in
              if str "cat" = Some "phase" then
                Some
                  ( Option.value (str "name") ~default:"",
                    Option.bind (Json.member "dur" ev) Json.to_float )
              else None)
            events
        | _ -> fail "%s: not a JSON array" trace
      in
      List.iter
        (fun (name, s) ->
          if
            not
              (List.exists
                 (fun (n, dur) ->
                   String.equal n name
                   && Option.fold dur ~none:false ~some:(fun d ->
                          Float.abs (d -. (s *. 1e6)) <= 1.))
                 spans)
          then
            fail "%s: no \"phase\" span %S of %.3f us in %s" path name
              (s *. 1e6) trace)
        phases;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name phases) then
            fail "%s: \"phase\" span %S has no entry in %s" trace name path)
        spans)
    trace;
  print_endline "stats JSON schema ok"
