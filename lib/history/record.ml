module Json = Pta_obs.Json
module Snapshot = Pta_report.Bench_snapshot
module Census = Pta_obs.Census

(* v2 adds the optional per-cell [heap_components] census block; v1
   records load with it empty.  v3 once added per-cell [jobs]/[domains]
   and the host's [cores] for a parallel drain that has since been
   removed: sequential v3 records are unchanged, a [cores] stamp is
   ignored, and a cell with [jobs] or [domains] other than 1 is
   refused. *)
let current_schema_version = 3

type build = {
  semver : string;
  commit : string;
  dirty : bool;
  ocaml : string;
  profile : string;
}

let commit_label b = if b.dirty then b.commit ^ "-dirty" else b.commit

type host = {
  os_type : string;
  word_size : int;
  hostname : string;
}

let current_host () =
  let hostname =
    match Sys.getenv_opt "PTA_BENCH_HOST" with
    | Some h when h <> "" -> h
    | _ -> ( try Unix.gethostname () with Unix.Unix_error _ -> "unknown")
  in
  { os_type = Sys.os_type; word_size = Sys.word_size; hostname }

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;
  iterations : int;
  nodes : int option;
  peak_heap_words : int option;
  time_hist : Snapshot.hist option;
  heap_components : Census.component list;  (* v2; [] when absent *)
}

type t = {
  schema_version : int;
  seq : int;
  timestamp : float option;
  note : string option;
  timeout_s : float;
  build : build;
  host : host;
  cells : cell list;
}

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let build_to_json b =
  Json.Obj
    [
      ("semver", Json.String b.semver);
      ("commit", Json.String b.commit);
      ("dirty", Json.Bool b.dirty);
      ("ocaml", Json.String b.ocaml);
      ("profile", Json.String b.profile);
    ]

let host_to_json h =
  Json.Obj
    [
      ("os_type", Json.String h.os_type);
      ("word_size", Json.Int h.word_size);
      ("hostname", Json.String h.hostname);
    ]

let cell_to_json c =
  Json.Obj
    ([
       ("benchmark", Json.String c.benchmark);
       ("analysis", Json.String c.analysis);
       ("timed_out", Json.Bool c.timed_out);
       ("time_s", Json.Float c.time_s);
       ("iterations", Json.Int c.iterations);
     ]
    @ (match c.nodes with None -> [] | Some n -> [ ("nodes", Json.Int n) ])
    @ (match c.peak_heap_words with
      | None -> []
      | Some w -> [ ("peak_heap_words", Json.Int w) ])
    @ (match c.time_hist with
      | None -> []
      | Some h -> [ ("time_hist", Snapshot.hist_to_json h) ])
    @ (match c.heap_components with
      | [] -> []
      | cs -> [ ("heap_components", Census.components_to_json cs) ]))

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int t.schema_version);
       ("seq", Json.Int t.seq);
     ]
    @ (match t.timestamp with
      | None -> []
      | Some ts -> [ ("timestamp", Json.Float ts) ])
    @ (match t.note with None -> [] | Some n -> [ ("note", Json.String n) ])
    @ [
        ("timeout_s", Json.Float t.timeout_s);
        ("build", build_to_json t.build);
        ("host", host_to_json t.host);
        ("cells", Json.List (List.map cell_to_json t.cells));
      ])

let ( let* ) r f = Result.bind r f

let field json name conv =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped %S" name)

let to_bool = function Json.Bool b -> Some b | _ -> None

let build_of_json json =
  let* semver = field json "semver" Json.to_str in
  let* commit = field json "commit" Json.to_str in
  let* dirty = field json "dirty" to_bool in
  let* ocaml = field json "ocaml" Json.to_str in
  let* profile = field json "profile" Json.to_str in
  Ok { semver; commit; dirty; ocaml; profile }

let host_of_json json =
  let* os_type = field json "os_type" Json.to_str in
  let* word_size = field json "word_size" Json.to_int in
  let* hostname = field json "hostname" Json.to_str in
  Ok { os_type; word_size; hostname }

let cell_of_json json =
  let* benchmark = field json "benchmark" Json.to_str in
  let* analysis = field json "analysis" Json.to_str in
  let* timed_out = field json "timed_out" to_bool in
  let* time_s = field json "time_s" Json.to_float in
  let* iterations = field json "iterations" Json.to_int in
  let nodes = Option.bind (Json.member "nodes" json) Json.to_int in
  let peak_heap_words =
    Option.bind (Json.member "peak_heap_words" json) Json.to_int
  in
  let* time_hist =
    match Json.member "time_hist" json with
    | None -> Ok None
    | Some j -> Result.map Option.some (Snapshot.hist_of_json j)
  in
  let* heap_components =
    match Json.member "heap_components" json with
    | None -> Ok []
    | Some j -> Census.components_of_json_list j
  in
  let* () = Snapshot.refuse_parallel_cell json ~benchmark ~analysis in
  Ok
    {
      benchmark;
      analysis;
      timed_out;
      time_s;
      iterations;
      nodes;
      peak_heap_words;
      time_hist;
      heap_components;
    }

let of_json json =
  let* schema_version = field json "schema_version" Json.to_int in
  if schema_version < 1 || schema_version > current_schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (max %d)" schema_version
         current_schema_version)
  else
    let* seq = field json "seq" Json.to_int in
    if seq < 0 then Error "negative seq"
    else
      let timestamp = Option.bind (Json.member "timestamp" json) Json.to_float in
      let note = Option.bind (Json.member "note" json) Json.to_str in
      let* timeout_s = field json "timeout_s" Json.to_float in
      let* build =
        match Json.member "build" json with
        | None -> Error "missing \"build\""
        | Some j -> build_of_json j
      in
      let* host =
        match Json.member "host" json with
        | None -> Error "missing \"host\""
        | Some j -> host_of_json j
      in
      let* cell_list = field json "cells" Json.to_list in
      let* cells =
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* c = cell_of_json j in
            Ok (c :: acc))
          (Ok []) cell_list
      in
      Ok
        {
          schema_version;
          seq;
          timestamp;
          note;
          timeout_s;
          build;
          host;
          cells = List.rev cells;
        }

(* ------------------------------------------------------------------ *)
(* From a bench snapshot                                               *)
(* ------------------------------------------------------------------ *)

let strip_dirty commit =
  let suffix = "-dirty" in
  let n = String.length commit and k = String.length suffix in
  if n > k && String.equal (String.sub commit (n - k) k) suffix then
    (String.sub commit 0 (n - k), true)
  else (commit, false)

let build_of_stamp stamp =
  let str name = Option.bind (Json.member name stamp) Json.to_str in
  match str "commit" with
  | None -> Error "snapshot build stamp has no \"commit\""
  | Some commit ->
    let commit, suffix_dirty = strip_dirty commit in
    let dirty =
      match Option.bind (Json.member "dirty" stamp) to_bool with
      | Some d -> d || suffix_dirty
      | None -> suffix_dirty
    in
    Ok
      {
        semver = Option.value ~default:"unknown" (str "version");
        commit;
        dirty;
        ocaml = Option.value ~default:"unknown" (str "ocaml");
        profile = Option.value ~default:"unknown" (str "profile");
      }

let of_snapshot ~seq ?timestamp ?note ~host (snap : Snapshot.t) =
  let* build =
    match snap.Snapshot.pointsto with
    | None ->
      Error
        "snapshot carries no build stamp (schema v1?); a ledger record must \
         be traceable to the build that measured it"
    | Some stamp -> build_of_stamp stamp
  in
  let cells =
    List.map
      (fun (c : Snapshot.cell) ->
        {
          benchmark = c.Snapshot.benchmark;
          analysis = c.Snapshot.analysis;
          timed_out = c.Snapshot.timed_out;
          time_s = c.Snapshot.time_s;
          iterations = c.Snapshot.iterations;
          nodes = c.Snapshot.nodes;
          peak_heap_words =
            Option.map
              (fun m -> m.Pta_obs.Memstats.peak_heap_words)
              c.Snapshot.memory;
          time_hist = c.Snapshot.time_hist;
          heap_components = c.Snapshot.heap_components;
        })
      snap.Snapshot.cells
  in
  Ok
    {
      schema_version = current_schema_version;
      seq;
      timestamp;
      note;
      timeout_s = snap.Snapshot.timeout_s;
      build;
      host;
      cells;
    }

let cell_find t ~benchmark ~analysis =
  List.find_opt
    (fun c ->
      String.equal c.benchmark benchmark && String.equal c.analysis analysis)
    t.cells
