(* Schema check for `pointsto ... --trace`: the file must be a valid
   Chrome trace-event JSON array whose events carry "name"/"ph"/"ts",
   and must contain the spans the given engine is expected to emit:

     solver  — per-edge-kind "solver" spans and the four "gauge"
               counters the driver samples at fixpoint;
     datalog — per-rule "rule" spans from the reference engine.

   Because the checked file was captured from stdout (--trace -), its
   parsing cleanly also proves the human-readable report did not
   interleave with the machine output. *)

module Json = Pta_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let path, mode =
    match Sys.argv with
    | [| _; path; ("solver" | "datalog") as mode |] -> (path, mode)
    | _ -> fail "usage: check_trace_json FILE (solver|datalog)"
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let events =
    match Json.of_string contents with
    | Ok (Json.List evs) -> evs
    | Ok _ -> fail "%s: not a JSON array" path
    | Error msg -> fail "%s: not valid JSON: %s" path msg
  in
  if events = [] then fail "%s: empty trace" path;
  let str_field ev name = Option.bind (Json.member name ev) Json.to_str in
  List.iter
    (fun ev ->
      (match str_field ev "name" with
      | Some _ -> ()
      | None -> fail "%s: event lacks a string \"name\"" path);
      (match Option.bind (Json.member "ts" ev) Json.to_float with
      | Some _ -> ()
      | None -> fail "%s: event lacks a numeric \"ts\"" path);
      match str_field ev "ph" with
      | Some ("B" | "E" | "X" | "C") -> ()
      | Some ph -> fail "%s: unknown ph %S" path ph
      | None -> fail "%s: event lacks a string \"ph\"" path)
    events;
  let has ~cat ~name =
    List.exists
      (fun ev -> str_field ev "cat" = Some cat && str_field ev "name" = Some name)
      events
  in
  let require ~cat ~name =
    if not (has ~cat ~name) then
      fail "%s: no %S event named %S" path cat name
  in
  (match mode with
  | "solver" ->
    List.iter
      (fun name -> require ~cat:"solver" ~name)
      [ "move"; "load"; "store"; "vcall"; "scall" ];
    List.iter
      (fun name -> require ~cat:"gauge" ~name)
      [ "contexts"; "avg objs per var"; "reachable methods"; "call-graph edges" ]
  | _ ->
    List.iter
      (fun name -> require ~cat:"rule" ~name)
      [ "alloc"; "move"; "load"; "store"; "vcall" ]);
  Printf.printf "trace JSON schema ok (%s)\n" mode
