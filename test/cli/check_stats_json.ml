(* Schema check for `pointsto analyze --stats-json`: the emitted file
   must be valid JSON carrying the documented keys with the documented
   types.  Given a second file from another run on the same input, every
   key except the wall-clock, GC and build-stamp ones must also be
   equal, and so must the solve's `memory.minor_allocated_words`, which
   depends on neither the GC settings nor the run:
   `check_stats_json FILE [FILE2]`. *)

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
  let path, other =
    match Sys.argv with
    | [| _; path |] -> (path, None)
    | [| _; path; other |] -> (path, Some other)
    | _ -> fail "usage: check_stats_json FILE [FILE2]"
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
  (match Json.to_obj (get "phases") with
  | None -> fail "%s: key \"phases\" is not an object" path
  | Some phases ->
    if not (List.mem_assoc "fixpoint" phases) then
      fail "%s: phases lacks a \"fixpoint\" entry" path;
    List.iter
      (fun (name, v) ->
        match Json.to_float v with
        | Some _ -> ()
        | None -> fail "%s: phase %S is not a number" path name)
      phases);
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
        "minor_allocated_words"; "major_allocated_words"; "peak_heap_words";
        "major_collections"; "minor_heap_words";
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
      let minor j =
        Option.bind (Json.member "memory" j) (Json.member "minor_allocated_words")
        |> Option.fold ~none:"missing" ~some:(Json.to_string ~indent:false)
      in
      let ma = minor json and mb = minor other_json in
      if ma <> mb then
        fail "%s and %s: memory.minor_allocated_words differs: %s vs %s" path
          other ma mb)
    other;
  print_endline "stats JSON schema ok"
