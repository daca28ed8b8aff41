module Ir = Pta_ir.Ir
module Algebra = Pta_context.Algebra

type position =
  | Ret
  | Param of int

type sink_pos =
  | Arg of int
  | Any_arg

type entry =
  | Source of { glob : string; pos : position }
  | Sink of { glob : string; pos : sink_pos }
  | Sanitizer of { glob : string }

type t = entry list

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_line lineno line =
  let fail fmt =
    Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt
  in
  let int_of w =
    match int_of_string_opt w with
    | Some i when i >= 0 -> Some i
    | _ -> None
  in
  match words (strip_comment line) with
  | [] -> Ok None
  | [ "source"; glob; "ret" ] -> Ok (Some (Source { glob; pos = Ret }))
  | [ "source"; glob; "param"; i ] -> (
    match int_of i with
    | Some i -> Ok (Some (Source { glob; pos = Param i }))
    | None -> fail "source: expected a non-negative parameter index, got %S" i)
  | "source" :: _ ->
    fail "source: expected 'source <glob> ret' or 'source <glob> param <i>'"
  | [ "sink"; glob; "arg"; "*" ] -> Ok (Some (Sink { glob; pos = Any_arg }))
  | [ "sink"; glob; "arg"; i ] -> (
    match int_of i with
    | Some i -> Ok (Some (Sink { glob; pos = Arg i }))
    | None -> fail "sink: expected a non-negative argument index or '*', got %S" i)
  | "sink" :: _ -> fail "sink: expected 'sink <glob> arg <i|*>'"
  | [ "sanitizer"; glob ] -> Ok (Some (Sanitizer { glob }))
  | "sanitizer" :: _ -> fail "sanitizer: expected 'sanitizer <glob>'"
  | w :: _ ->
    fail "unknown directive %S (expected source, sink or sanitizer)" w

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Error _ as e -> e
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some entry) -> go (lineno + 1) (entry :: acc) rest)
  in
  go 1 [] lines

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let entry_to_string = function
  | Source { glob; pos = Ret } -> Printf.sprintf "source %s ret" glob
  | Source { glob; pos = Param i } -> Printf.sprintf "source %s param %d" glob i
  | Sink { glob; pos = Any_arg } -> Printf.sprintf "sink %s arg *" glob
  | Sink { glob; pos = Arg i } -> Printf.sprintf "sink %s arg %d" glob i
  | Sanitizer { glob } -> Printf.sprintf "sanitizer %s" glob

let to_string entries =
  String.concat "" (List.map (fun e -> entry_to_string e ^ "\n") entries)

let default =
  [
    Source { glob = "*.fetch/*"; pos = Ret };
    Sink { glob = "*.leak/*"; pos = Any_arg };
    Sanitizer { glob = "*.scrub/*" };
  ]

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

type source = {
  src_label : int;
  src_meth : Ir.Meth_id.t;
  src_pos : position;
}

type compiled = {
  c_entries : t;
  c_sources : source list;
  c_names : string array;  (** label -> human name *)
  c_sinks : int list Ir.Meth_id.Tbl.t;  (** sorted distinct positions *)
  c_sanitizers : unit Ir.Meth_id.Tbl.t;
}

let position_order = function
  | Ret -> -1
  | Param i -> i

let compile program spec =
  (* Every method with its qualified name, in id order, named once for
     all the globs. *)
  let qnames =
    List.init (Ir.Program.n_meths program) (fun m ->
        let m = Ir.Meth_id.of_int m in
        (m, Ir.Program.meth_qualified_name program m))
  in
  let matching glob =
    List.filter_map
      (fun (m, qname) -> if Algebra.glob_match glob qname then Some m else None)
      qnames
  in
  (* Source positions: collect (meth, pos) pairs, dedup, order by
     (meth id, position) so labels are deterministic. *)
  let module P = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let src_set = ref P.empty in
  List.iter
    (function
      | Source { glob; pos } ->
        List.iter
          (fun m ->
            src_set :=
              P.add (Ir.Meth_id.to_int m, position_order pos) !src_set)
          (matching glob)
      | Sink _ | Sanitizer _ -> ())
    spec;
  let sources =
    List.mapi
      (fun i (m, p) ->
        {
          src_label = i;
          src_meth = Ir.Meth_id.of_int m;
          src_pos = (if p < 0 then Ret else Param p);
        })
      (P.elements !src_set)
  in
  let names =
    Array.of_list
      (List.map
         (fun s ->
           let qname = Ir.Program.meth_qualified_name program s.src_meth in
           match s.src_pos with
           | Ret -> qname ^ " ret"
           | Param i -> Printf.sprintf "%s param %d" qname i)
         sources)
  in
  let sinks = Ir.Meth_id.Tbl.create 16 in
  List.iter
    (function
      | Sink { glob; pos } ->
        List.iter
          (fun m ->
            let arity =
              (Ir.Program.sig_info program
                 (Ir.Program.meth_info program m).Ir.meth_sig)
                .Ir.sig_arity
            in
            let add =
              match pos with
              | Any_arg -> List.init arity (fun i -> i)
              | Arg i when i < arity -> [ i ]
              | Arg _ -> []
            in
            if add <> [] then
              let prev =
                Option.value ~default:[] (Ir.Meth_id.Tbl.find_opt sinks m)
              in
              Ir.Meth_id.Tbl.replace sinks m
                (List.sort_uniq compare (add @ prev)))
          (matching glob)
      | Source _ | Sanitizer _ -> ())
    spec;
  let sanitizers = Ir.Meth_id.Tbl.create 16 in
  List.iter
    (function
      | Sanitizer { glob } ->
        List.iter (fun m -> Ir.Meth_id.Tbl.replace sanitizers m ()) (matching glob)
      | Source _ | Sink _ -> ())
    spec;
  {
    c_entries = spec;
    c_sources = sources;
    c_names = names;
    c_sinks = sinks;
    c_sanitizers = sanitizers;
  }

let sources c = c.c_sources
let n_sources c = List.length c.c_sources

let source_var program s =
  let info = Ir.Program.meth_info program s.src_meth in
  match s.src_pos with
  | Ret -> info.Ir.ret_var
  | Param i ->
    if i < Array.length info.Ir.formals then Some info.Ir.formals.(i) else None

let label_name c label =
  if label >= 0 && label < Array.length c.c_names then c.c_names.(label)
  else Printf.sprintf "<label %d>" label

let sink_positions c m =
  Option.value ~default:[] (Ir.Meth_id.Tbl.find_opt c.c_sinks m)

let is_sanitizer c m = Ir.Meth_id.Tbl.mem c.c_sanitizers m

let sink_meths c =
  Ir.Meth_id.Tbl.fold (fun m _ acc -> m :: acc) c.c_sinks []
  |> List.sort Ir.Meth_id.compare
