module Ir = Pta_ir.Ir

type kind = Kcall | Kobj | Ktype

type elem =
  | Star
  | Site
  | Recv
  | Recv_type
  | Alloc
  | Caller of int
  | Hctx of int
  | If_site of int * elem * elem

type spec = {
  depth : int;
  record : elem array;
  merge : elem array;
  merge_static : elem array;
}

type t =
  | Insens
  | Base of { kind : kind; k : int; h : int }
  | Uniform of t
  | Selective of t
  | Selective_a of t
  | Per_method of { cases : (string * t) list; default : t }
  | Cut_shortcut of t
  | Raw of spec

let insens = Insens
let call ?(h = 0) k = Base { kind = Kcall; k; h }
let obj ?(h = 0) k = Base { kind = Kobj; k; h }
let typ ?(h = 0) k = Base { kind = Ktype; k; h }
let uniform t = Uniform t
let selective_a t = Selective_a t
let selective_b t = Selective t
let per_method cases ~default = Per_method { cases; default }
let cut_shortcut t = Cut_shortcut t

let raw ~depth ~record ~merge ~merge_static =
  Raw
    {
      depth;
      record = Array.of_list record;
      merge = Array.of_list merge;
      merge_static = Array.of_list merge_static;
    }

let callsite = Site
let receiver_obj = Recv
let receiver_type = Recv_type
let alloc_site = Alloc
let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Printing (needed early: validation errors quote canonical forms)    *)
(* ------------------------------------------------------------------ *)

let kind_name = function Kcall -> "call" | Kobj -> "obj" | Ktype -> "type"

let rec elem_to_string = function
  | Star -> "*"
  | Site -> "site"
  | Recv -> "recv"
  | Recv_type -> "recv_type"
  | Alloc -> "alloc"
  | Caller i -> Printf.sprintf "caller %d" i
  | Hctx i -> Printf.sprintf "hctx %d" i
  | If_site (i, a, b) ->
    Printf.sprintf "if_site(%d, %s, %s)" i (elem_to_string a) (elem_to_string b)

let row_to_string row =
  "[" ^ String.concat ", " (List.map elem_to_string (Array.to_list row)) ^ "]"

let rec to_string = function
  | Insens -> "insens"
  | Base { kind; k; h } ->
    if h = 0 then Printf.sprintf "%s %d" (kind_name kind) k
    else Printf.sprintf "%s %d %d" (kind_name kind) k h
  | Uniform t -> "uniform(" ^ to_string t ^ ")"
  | Selective t -> "selective(" ^ to_string t ^ ")"
  | Selective_a t -> "selective_a(" ^ to_string t ^ ")"
  | Per_method { cases; default } ->
    let case (g, t) = Printf.sprintf "\"%s\": %s" g (to_string t) in
    "per_method("
    ^ String.concat ", " (List.map case cases @ [ to_string default ])
    ^ ")"
  | Cut_shortcut t -> "cs(" ^ to_string t ^ ")"
  | Raw { depth; record; merge; merge_static } ->
    Printf.sprintf "raw(%d, %s, %s, %s)" depth (row_to_string record)
      (row_to_string merge) (row_to_string merge_static)

let heap_suffix = function
  | 0 -> ""
  | 1 -> " with a context-sensitive heap"
  | h -> Printf.sprintf " with a %d-deep context-sensitive heap" h

let rec describe = function
  | Insens -> "context-insensitive"
  | Base { kind; k; h } ->
    let source =
      match kind with
      | Kcall -> "call-site"
      | Kobj -> "object"
      | Ktype -> "type"
    in
    Printf.sprintf "%d-%s-sensitive%s" k source (heap_suffix h)
  | Uniform t -> "uniform hybrid over " ^ describe t
  | Selective t -> "selective hybrid (variant B) over " ^ describe t
  | Selective_a t -> "selective hybrid (variant A) over " ^ describe t
  | Per_method _ -> "per-method context selection"
  | Cut_shortcut t ->
    "cut-shortcut (trivial calls threaded through the caller) over "
    ^ describe t
  | Raw _ -> "custom constructor table"

(* ------------------------------------------------------------------ *)
(* Validation and spec compilation                                     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let max_depth = 3
let max_heap_depth = 2

type row_pos = Precord | Pmerge | Pstatic

let pos_name = function
  | Precord -> "record"
  | Pmerge -> "merge"
  | Pstatic -> "merge_static"

let rec check_elem ~pos ~depth e =
  match e with
  | Star -> Ok ()
  | Alloc ->
    if pos = Precord then Ok ()
    else
      Error
        (Printf.sprintf "raw: alloc is only valid in the record row, not %s"
           (pos_name pos))
  | Site ->
    if pos = Precord then
      Error "raw: site is not valid in the record row (no invocation there)"
    else Ok ()
  | Recv | Recv_type ->
    if pos = Pmerge then Ok ()
    else
      Error
        (Printf.sprintf
           "raw: %s is only valid in the merge row (no receiver in %s)"
           (elem_to_string e) (pos_name pos))
  | Caller i ->
    if i >= 0 && i < depth then Ok ()
    else
      Error
        (Printf.sprintf "raw: caller index %d out of range for depth %d" i
           depth)
  | Hctx i ->
    if pos <> Pmerge then
      Error
        (Printf.sprintf "raw: hctx is only valid in the merge row, not %s"
           (pos_name pos))
    else if i >= 0 && i < max_heap_depth then Ok ()
    else
      Error
        (Printf.sprintf
           "raw: hctx index %d out of range (heap contexts have at most %d elements)"
           i max_heap_depth)
  | If_site (i, a, b) ->
    if i < 0 || i >= depth then
      Error
        (Printf.sprintf "raw: if_site index %d out of range for depth %d" i
           depth)
    else
      let* () = check_elem ~pos ~depth a in
      check_elem ~pos ~depth b

let check_row ~pos ~depth row =
  Array.fold_left
    (fun acc e ->
      let* () = acc in
      check_elem ~pos ~depth e)
    (Ok ()) row

let check_raw ({ depth; record; merge; merge_static } as s) =
  if depth < 0 || depth > max_depth then
    Error
      (Printf.sprintf "raw: depth must be between 0 and %d (got %d)" max_depth
         depth)
  else if Array.length merge <> depth then
    Error
      (Printf.sprintf "raw: merge row has %d elements, expected %d"
         (Array.length merge) depth)
  else if Array.length merge_static <> depth then
    Error
      (Printf.sprintf "raw: merge_static row has %d elements, expected %d"
         (Array.length merge_static) depth)
  else if Array.length record > max_heap_depth then
    Error
      (Printf.sprintf "raw: record row has %d elements, maximum is %d"
         (Array.length record) max_heap_depth)
  else
    let* () = check_row ~pos:Precord ~depth record in
    let* () = check_row ~pos:Pmerge ~depth merge in
    let* () = check_row ~pos:Pstatic ~depth merge_static in
    Ok s

(* Hybrid composers are defined over object-/type-sensitive bases: a
   call-site base would stamp the same invocation-site element the
   composer itself manages, collapsing the hybrid into plain call-site
   sensitivity. *)
let base_of ~who t =
  match t with
  | Base { kind = (Kobj | Ktype) as kind; k; h } -> Ok (kind, k, h)
  | Base { kind = Kcall; _ } ->
    Error
      (who
     ^ ": base must be object- or type-sensitive (obj K [H] or type K [H]), \
        not call-site-sensitive")
  | Insens | Uniform _ | Selective _ | Selective_a _ | Per_method _
  | Cut_shortcut _ | Raw _ ->
    Error
      (Printf.sprintf
         "%s: base must be a base analysis (obj K [H] or type K [H]), got %s"
         who (to_string t))

let callers n = Array.init n (fun i -> Caller i)

let rec spec_of t =
  match t with
  | Insens -> Ok { depth = 0; record = [||]; merge = [||]; merge_static = [||] }
  | Base { kind; k; h } ->
    if k < 1 || k > max_depth then
      Error
        (Printf.sprintf "context depth must be between 1 and %d (got %d)"
           max_depth k)
    else if h < 0 || h > max_heap_depth then
      Error
        (Printf.sprintf "heap depth must be between 0 and %d (got %d)"
           max_heap_depth h)
    else if h > k then
      Error
        (Printf.sprintf "heap depth (%d) cannot exceed context depth (%d)" h k)
    else
      let source = match kind with Kcall -> Site | Kobj -> Recv | Ktype -> Recv_type in
      let merge =
        Array.init k (fun i ->
            if i = 0 then source
            else match kind with Kcall -> Caller (i - 1) | Kobj | Ktype -> Hctx (i - 1))
      in
      let merge_static =
        match kind with
        | Kcall -> Array.init k (fun i -> if i = 0 then Site else Caller (i - 1))
        | Kobj | Ktype -> callers k
      in
      Ok { depth = k; record = callers h; merge; merge_static }
  | Uniform base ->
    let* kind, k, h = base_of ~who:"uniform" base in
    let* s = spec_of (Base { kind; k; h }) in
    if s.depth + 1 > max_depth then
      Error
        (Printf.sprintf "uniform: resulting tuple depth %d exceeds the maximum of %d"
           (s.depth + 1) max_depth)
    else
      Ok
        {
          depth = s.depth + 1;
          record = s.record;
          merge = Array.append s.merge [| Site |];
          merge_static = Array.append (callers s.depth) [| Site |];
        }
  | Selective base ->
    let* kind, k, h = base_of ~who:"selective" base in
    let* s = spec_of (Base { kind; k; h }) in
    if s.depth + 1 > max_depth then
      Error
        (Printf.sprintf
           "selective: resulting tuple depth %d exceeds the maximum of %d"
           (s.depth + 1) max_depth)
    else
      Ok
        {
          depth = s.depth + 1;
          record = s.record;
          merge = Array.append s.merge [| Star |];
          merge_static =
            Array.append [| Caller 0; Site |]
              (Array.init (s.depth - 1) (fun i -> Caller (i + 1)));
        }
  | Selective_a base ->
    let* kind, k, h = base_of ~who:"selective_a" base in
    let* s = spec_of (Base { kind; k; h }) in
    Ok
      {
        s with
        merge_static =
          Array.init s.depth (fun i -> if i = 0 then Site else Caller (i - 1));
      }
  | Per_method _ ->
    Error
      "per_method terms have no fixed constructor table (shape is per-callee)"
  | Cut_shortcut _ ->
    Error "cs terms have no fixed constructor table (cut set is per-program)"
  | Raw s -> check_raw s

let rec validate t =
  match t with
  | Per_method { cases; default } ->
    let* () =
      List.fold_left
        (fun acc (glob, sub) ->
          let* () = acc in
          if glob = "" then Error "per_method: empty glob pattern"
          else
            let* _ = spec_of sub in
            Ok ())
        (Ok ()) cases
    in
    let* _ = spec_of default in
    Ok ()
  | Cut_shortcut (Cut_shortcut _) -> Error "cs: cut-shortcut terms do not nest"
  | Cut_shortcut inner -> validate inner
  | Insens | Base _ | Uniform _ | Selective _ | Selective_a _ | Raw _ ->
    let* _ = spec_of t in
    Ok ()

(* ------------------------------------------------------------------ *)
(* Compilation to a Strategy.t                                         *)
(* ------------------------------------------------------------------ *)

(* CA : H -> T, the class containing the allocation site. *)
let class_of_alloc program heap =
  let owner = (Ir.Program.heap_info program heap).Ir.heap_owner in
  (Ir.Program.meth_info program owner).Ir.meth_owner

let nth_ctx (v : Ctx.value) i =
  if i >= 0 && i < Array.length v then v.(i) else Ctx.Star

let is_invo = function Ctx.Invo _ -> true | Ctx.Star | Ctx.Heap _ | Ctx.Type _ -> false

(* Validation guarantees the [Option.get]s: [Site]/[Recv]/[Recv_type]/
   [Hctx]/[Alloc] only appear in rows whose evaluation site supplies the
   corresponding input. *)
let rec eval_elem program ~heap ~hctx ~invo ~(ctx : Ctx.value) e : Ctx.elem =
  match e with
  | Star -> Ctx.Star
  | Site -> Ctx.Invo (Option.get invo)
  | Recv -> Ctx.Heap (Option.get heap)
  | Recv_type -> Ctx.Type (class_of_alloc program (Option.get heap))
  | Alloc -> Ctx.Heap (Option.get heap)
  | Caller i -> nth_ctx ctx i
  | Hctx i -> nth_ctx (Option.get hctx) i
  | If_site (i, a, b) ->
    if is_invo (nth_ctx ctx i) then eval_elem program ~heap ~hctx ~invo ~ctx a
    else eval_elem program ~heap ~hctx ~invo ~ctx b

let eval_row program ~heap ~hctx ~invo ~ctx row =
  Array.map (eval_elem program ~heap ~hctx ~invo ~ctx) row

(* The engine-facing shape: every strategy is a per-method spec choice
   plus row evaluation.  Fixed-shape terms use a constant [spec_for]. *)
let dispatching program ~depth ~spec_for : Strategy.t =
  {
    Strategy.name = "";
    description = "";
    initial_ctx = Array.make depth Ctx.Star;
    record =
      (fun ~heap ~ctx ->
        let owner = (Ir.Program.heap_info program heap).Ir.heap_owner in
        eval_row program ~heap:(Some heap) ~hctx:None ~invo:None ~ctx
          (spec_for owner).record);
    merge =
      (fun ~heap ~hctx ~invo ~callee ~ctx ->
        eval_row program ~heap:(Some heap) ~hctx:(Some hctx) ~invo:(Some invo)
          ~ctx (spec_for callee).merge);
    merge_static =
      (fun ~invo ~callee ~ctx ->
        eval_row program ~heap:None ~hctx:None ~invo:(Some invo) ~ctx
          (spec_for callee).merge_static);
    shortcut = None;
  }

let of_spec program spec =
  dispatching program ~depth:spec.depth ~spec_for:(fun _ -> spec)

(* Glob matching with ['*'] as "any substring". *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pat.[pi] with
      | '*' -> go (pi + 1) si || (si < ns && go pi (si + 1))
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let memo_spec_for f =
  let cache = Hashtbl.create 64 in
  fun m ->
    let key = Ir.Meth_id.to_int m in
    match Hashtbl.find_opt cache key with
    | Some s -> s
    | None ->
      let s = f m in
      Hashtbl.add cache key s;
      s

let spec_of_exn t =
  match spec_of t with Ok s -> s | Error msg -> invalid_arg msg

let rec build program t : Strategy.t =
  match t with
  | Insens | Base _ | Uniform _ | Selective _ | Selective_a _ | Raw _ ->
    of_spec program (spec_of_exn t)
  | Per_method { cases; default } ->
    let compiled =
      List.map (fun (glob, sub) -> (glob, spec_of_exn sub)) cases
    in
    let default_s = spec_of_exn default in
    let depth =
      List.fold_left
        (fun d (_, s) -> max d s.depth)
        default_s.depth compiled
    in
    let spec_for =
      memo_spec_for (fun m ->
          let qname = Ir.Program.meth_qualified_name program m in
          match
            List.find_opt (fun (glob, _) -> glob_match glob qname) compiled
          with
          | Some (_, s) -> s
          | None -> default_s)
    in
    dispatching program ~depth ~spec_for
  | Cut_shortcut inner ->
    let inner_s = build program inner in
    let plan = Shortcut.compute program in
    let cut invo = Shortcut.action plan invo <> None in
    {
      inner_s with
      merge =
        (fun ~heap ~hctx ~invo ~callee ~ctx ->
          if cut invo then inner_s.Strategy.initial_ctx
          else inner_s.Strategy.merge ~heap ~hctx ~invo ~callee ~ctx);
      merge_static =
        (fun ~invo ~callee ~ctx ->
          if cut invo then inner_s.Strategy.initial_ctx
          else inner_s.Strategy.merge_static ~invo ~callee ~ctx);
      shortcut = Some plan;
    }

let to_strategy ?name ?description program t =
  let* () = validate t in
  let s = build program t in
  Ok
    {
      s with
      Strategy.name = Option.value name ~default:(to_string t);
      description = Option.value description ~default:(describe t);
    }

let to_strategy_exn ?name ?description program t =
  match to_strategy ?name ?description program t with
  | Ok s -> s
  | Error msg -> invalid_arg ("Algebra.to_strategy: " ^ msg)

(* ------------------------------------------------------------------ *)
(* The expression language                                             *)
(* ------------------------------------------------------------------ *)

type token =
  | Tid of string
  | Tint of int
  | Tstr of string
  | Tlpar
  | Trpar
  | Tlbrk
  | Trbrk
  | Tcomma
  | Tcolon
  | Tstar

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '(' then (toks := Tlpar :: !toks; incr i)
    else if c = ')' then (toks := Trpar :: !toks; incr i)
    else if c = '[' then (toks := Tlbrk :: !toks; incr i)
    else if c = ']' then (toks := Trbrk :: !toks; incr i)
    else if c = ',' then (toks := Tcomma :: !toks; incr i)
    else if c = ':' then (toks := Tcolon :: !toks; incr i)
    else if c = '*' then (toks := Tstar :: !toks; incr i)
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '"' do
        incr j
      done;
      if !j >= n then fail "unterminated string literal";
      toks := Tstr (String.sub s (!i + 1) (!j - !i - 1)) :: !toks;
      i := !j + 1
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      toks := Tint (int_of_string (String.sub s !i (!j - !i))) :: !toks;
      i := !j
    end
    else if is_ident c then begin
      let j = ref !i in
      while !j < n && is_ident s.[!j] do
        incr j
      done;
      toks := Tid (String.sub s !i (!j - !i)) :: !toks;
      i := !j
    end
    else fail "unexpected character '%c'" c
  done;
  Array.of_list (List.rev !toks)

let token_to_string = function
  | Tid s -> "'" ^ s ^ "'"
  | Tint n -> string_of_int n
  | Tstr s -> "\"" ^ s ^ "\""
  | Tlpar -> "'('"
  | Trpar -> "')'"
  | Tlbrk -> "'['"
  | Trbrk -> "']'"
  | Tcomma -> "','"
  | Tcolon -> "':'"
  | Tstar -> "'*'"

let parse input =
  try
    let toks = tokenize input in
    let pos = ref 0 in
    let peek () = if !pos < Array.length toks then Some toks.(!pos) else None in
    let next what =
      match peek () with
      | Some t ->
        incr pos;
        t
      | None -> fail "expected %s, got end of input" what
    in
    let expect tok what =
      let t = next what in
      if t <> tok then fail "expected %s, got %s" what (token_to_string t)
    in
    let expect_int what =
      match next what with
      | Tint n -> n
      | t -> fail "expected %s, got %s" what (token_to_string t)
    in
    let rec parse_elem () =
      match next "a context element" with
      | Tstar -> Star
      | Tid "site" -> Site
      | Tid "recv" -> Recv
      | Tid "recv_type" -> Recv_type
      | Tid "alloc" -> Alloc
      | Tid "caller" -> Caller (expect_int "a caller index")
      | Tid "hctx" -> Hctx (expect_int "an hctx index")
      | Tid "if_site" ->
        expect Tlpar "'(' after if_site";
        let i = expect_int "an if_site index" in
        expect Tcomma "',' in if_site";
        let a = parse_elem () in
        expect Tcomma "',' in if_site";
        let b = parse_elem () in
        expect Trpar "')' closing if_site";
        If_site (i, a, b)
      | t -> fail "expected a context element, got %s" (token_to_string t)
    in
    let parse_row () =
      expect Tlbrk "'[' opening an element row";
      if peek () = Some Trbrk then begin
        incr pos;
        [||]
      end
      else begin
        let elems = ref [ parse_elem () ] in
        let rec more () =
          match next "',' or ']' in an element row" with
          | Tcomma ->
            elems := parse_elem () :: !elems;
            more ()
          | Trbrk -> ()
          | t ->
            fail "expected ',' or ']' in an element row, got %s"
              (token_to_string t)
        in
        more ();
        Array.of_list (List.rev !elems)
      end
    in
    let rec parse_term () =
      match next "a strategy term" with
      | Tid "insens" -> Insens
      | Tid (("call" | "obj" | "type") as name) ->
        let kind =
          match name with
          | "call" -> Kcall
          | "obj" -> Kobj
          | _ -> Ktype
        in
        let k = expect_int ("a context depth after '" ^ name ^ "'") in
        let h = match peek () with
          | Some (Tint h) ->
            incr pos;
            h
          | Some _ | None -> 0
        in
        Base { kind; k; h }
      | Tid
          (("uniform" | "selective" | "selective_a" | "selective_b" | "cs") as
           name) ->
        expect Tlpar ("'(' after " ^ name);
        let sub = parse_term () in
        expect Trpar ("')' closing " ^ name);
        (match name with
        | "uniform" -> Uniform sub
        | "selective" | "selective_b" -> Selective sub
        | "selective_a" -> Selective_a sub
        | _ -> Cut_shortcut sub)
      | Tid "per_method" ->
        expect Tlpar "'(' after per_method";
        let cases = ref [] in
        let rec entries () =
          match peek () with
          | Some (Tstr glob) ->
            incr pos;
            expect Tcolon "':' after a per_method glob";
            let sub = parse_term () in
            cases := (glob, sub) :: !cases;
            (match next "',' continuing per_method" with
            | Tcomma -> entries ()
            | t ->
              fail
                "expected ',' and a default term closing per_method, got %s"
                (token_to_string t))
          | Some _ ->
            let default = parse_term () in
            expect Trpar "')' closing per_method";
            default
          | None -> fail "per_method: missing default term"
        in
        let default = entries () in
        Per_method { cases = List.rev !cases; default }
      | Tid "raw" ->
        expect Tlpar "'(' after raw";
        let depth = expect_int "a tuple depth" in
        expect Tcomma "',' after the raw depth";
        let record = parse_row () in
        expect Tcomma "',' after the record row";
        let merge = parse_row () in
        expect Tcomma "',' after the merge row";
        let merge_static = parse_row () in
        expect Trpar "')' closing raw";
        Raw { depth; record; merge; merge_static }
      | Tid name -> fail "unknown combinator '%s'" name
      | t -> fail "expected a strategy term, got %s" (token_to_string t)
    in
    if Array.length toks = 0 then Error "empty strategy expression"
    else begin
      let t = parse_term () in
      match peek () with
      | None -> Ok t
      | Some tok -> fail "trailing input after term: %s" (token_to_string tok)
    end
  with Parse_error msg -> Error msg

let of_string s =
  let* t = parse s in
  let* () = validate t in
  Ok t
