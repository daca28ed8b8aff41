type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs of characters that need no escape are copied with one
   [Buffer.add_substring] each. *)
let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then
    (* Keep a decimal point so the value parses back as a float. *)
    Printf.sprintf "%.1f" x
  else
    (* %.17g round-trips every finite double exactly. *)
    Printf.sprintf "%.17g" x

let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

(* A line break and the indentation of depth [d], one string per depth
   for the depths a document usually reaches. *)
let line_breaks = Array.init 32 (fun d -> "\n" ^ String.make (2 * d) ' ')

let add_line_break buf d =
  if d < Array.length line_breaks then Buffer.add_string buf line_breaks.(d)
  else begin
    Buffer.add_char buf '\n';
    add_spaces buf (2 * d)
  end

let to_buffer ?(indent = true) ?(depth = 0) buf v =
  let brk depth = if indent then add_line_break buf depth in
  let colon = if indent then ": " else ":" in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
      if Float.is_nan x || Float.is_integer (x /. 0.) then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr x)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List (item :: items) ->
      Buffer.add_char buf '[';
      brk (depth + 1);
      go (depth + 1) item;
      items_after depth items;
      brk depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj (member :: members) ->
      Buffer.add_char buf '{';
      brk (depth + 1);
      member_at (depth + 1) member;
      members_after depth members;
      brk depth;
      Buffer.add_char buf '}'
  and items_after depth = function
    | [] -> ()
    | item :: items ->
      Buffer.add_char buf ',';
      brk (depth + 1);
      go (depth + 1) item;
      items_after depth items
  and member_at depth (k, item) =
    escape buf k;
    Buffer.add_string buf colon;
    go depth item
  and members_after depth = function
    | [] -> ()
    | member :: members ->
      Buffer.add_char buf ',';
      brk (depth + 1);
      member_at (depth + 1) member;
      members_after depth members
  in
  go depth v;
  if indent && depth = 0 then Buffer.add_char buf '\n'

let to_string ?indent v =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* Escaped controls only ever come from our own printer, which
             emits \u for ASCII controls; decode those directly. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else fail "unsupported \\u escape"
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let members = ref [] in
        let rec members_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members_loop ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
  | exception Failure msg -> Error (Printf.sprintf "JSON parse error: %s" msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_obj = function Obj members -> Some members | _ -> None
let to_list = function List items -> Some items | _ -> None
