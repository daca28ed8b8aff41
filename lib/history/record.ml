module Json = Pta_obs.Json
module Snapshot = Pta_report.Bench_snapshot

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

type t = {
  seq : int;
  timestamp : float option;
  note : string option;
  timeout_s : float;
  build : build;
  host : host;
  cells : Snapshot.cell list;
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

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int Snapshot.current_schema_version);
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
        ("cells", Json.List (List.map Snapshot.cell_to_json t.cells));
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

let of_json json =
  let* () = Snapshot.check_schema_version json in
  let* seq = field json "seq" Json.to_int in
  if seq < 0 then Error "negative seq"
  else
    let* timeout_s = field json "timeout_s" Json.to_float in
    let* build = Result.bind (field json "build" Option.some) build_of_json in
    let* host = Result.bind (field json "host" Option.some) host_of_json in
    let* cells = Snapshot.cells_of_json json in
    Ok
      {
        seq;
        timestamp = Option.bind (Json.member "timestamp" json) Json.to_float;
        note = Option.bind (Json.member "note" json) Json.to_str;
        timeout_s;
        build;
        host;
        cells;
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
        "snapshot carries no build stamp; a ledger record must be traceable \
         to the build that measured it"
    | Some stamp -> build_of_stamp stamp
  in
  Ok
    {
      seq;
      timestamp;
      note;
      timeout_s = snap.Snapshot.timeout_s;
      build;
      host;
      cells = snap.Snapshot.cells;
    }

let cell_find t ~benchmark ~analysis =
  List.find_opt
    (fun (c : Snapshot.cell) ->
      String.equal c.benchmark benchmark && String.equal c.analysis analysis)
    t.cells
