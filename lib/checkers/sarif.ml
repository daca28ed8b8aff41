module Json = Pta_obs.Json
module Srcloc = Pta_ir.Srcloc

let text s = Json.Obj [ ("text", Json.String s) ]

let region (span : Srcloc.span) =
  Json.Obj
    [
      ("startLine", Json.Int span.left.line);
      ("startColumn", Json.Int span.left.col);
      ("endLine", Json.Int span.right.line);
      ("endColumn", Json.Int span.right.col);
    ]

let location_fields (span : Srcloc.span) =
  [
    ( "physicalLocation",
      Json.Obj
        [
          ("artifactLocation", Json.Obj [ ("uri", Json.String span.left.file) ]);
          ("region", region span);
        ] );
  ]

let physical_location span = Json.Obj (location_fields span)

let location_with_message span message =
  match span with
  | None -> None
  | Some span ->
    Some (Json.Obj (location_fields span @ [ ("message", text message) ]))

let result (d : Diagnostic.t) =
  let locations =
    match d.span with None -> [] | Some span -> [ physical_location span ]
  in
  let related =
    List.filter_map
      (fun (w : Diagnostic.witness) ->
        let message =
          String.concat "\n" (w.w_message :: List.map (fun l -> "  " ^ l) w.w_detail)
        in
        location_with_message w.w_span message)
      d.witnesses
  in
  Json.Obj
    (("ruleId", Json.String d.code)
     :: ("level", Json.String (Diagnostic.severity_to_string d.severity))
     :: ("message", text d.message)
     :: ("locations", Json.List locations)
     ::
     (if related = [] then []
      else [ ("relatedLocations", Json.List related) ]))

let rule (i : Checkers.info) =
  Json.Obj
    [
      ("id", Json.String i.code);
      ("shortDescription", text i.summary);
      ("fullDescription", text i.help);
      ( "defaultConfiguration",
        Json.Obj
          [ ("level", Json.String (Diagnostic.severity_to_string i.severity)) ]
      );
    ]

let tool ~tool_version =
  Json.Obj
    [
      ( "driver",
        Json.Obj
          [
            ("name", Json.String "pointsto");
            ("version", Json.String tool_version);
            ("rules", Json.List (List.map rule Checkers.all));
          ] );
    ]

(* The rendered size, from the text the document carries plus a fixed
   cost per result and per related location.  The constants fit the
   reports of gen tiny, luindex and eclipse to within 1% and are rounded
   up, so the buffer is allocated once and never doubles. *)
let estimated_size diagnostics =
  let file = function
    | Some (sp : Srcloc.span) -> String.length sp.left.file
    | None -> 0
  in
  List.fold_left
    (fun n (d : Diagnostic.t) ->
      List.fold_left
        (fun n (w : Diagnostic.witness) ->
          List.fold_left
            (fun n line -> n + 4 + String.length line)
            (n + 640 + file w.w_span + String.length w.w_message)
            w.w_detail)
        (n + 384 + file d.span + String.length d.code + String.length d.message)
        d.witnesses)
    8192 diagnostics

(* The document is printed in pieces: the envelope's fixed text, the
   tool at its depth, then each result's tree, built and printed one at
   a time, so a whole-document tree never exists.  The bytes are those
   of the whole tree printed by [Json.to_buffer], followed by one more
   newline. *)
let to_string ~tool_version diagnostics =
  let diagnostics = List.sort Diagnostic.compare diagnostics in
  let buf = Buffer.create (estimated_size diagnostics) in
  Buffer.add_string buf
    "{\n\
    \  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [\n\
    \    {\n\
    \      \"tool\": ";
  Json.to_buffer ~depth:3 buf (tool ~tool_version);
  Buffer.add_string buf ",\n      \"results\": [";
  List.iteri
    (fun i d ->
      Buffer.add_string buf (if i = 0 then "\n        " else ",\n        ");
      Json.to_buffer ~depth:4 buf (result d))
    diagnostics;
  if diagnostics <> [] then Buffer.add_string buf "\n      ";
  Buffer.add_string buf "]\n    }\n  ]\n}\n\n";
  Buffer.contents buf
