type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let create ~file src = { src; file; pos = 0; line = 1; bol = 0 }

let here lx =
  { Srcloc.file = lx.file; line = lx.line; col = lx.pos - lx.bol + 1 }

(* The character under the cursor, or ['\000'] past the end.  A NUL
   inside the source is still an invalid character: every reader tests
   [at_end] before it treats ['\000'] as the end. *)
let at_end lx = lx.pos >= String.length lx.src
let peek lx = if at_end lx then '\000' else String.unsafe_get lx.src lx.pos

let advance lx =
  if peek lx = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let rec skip_space lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
    advance lx;
    skip_space lx
  | '/' when lx.pos + 1 < String.length lx.src -> (
    match lx.src.[lx.pos + 1] with
    | '/' ->
      while (not (at_end lx)) && peek lx <> '\n' do
        advance lx
      done;
      skip_space lx
    | '*' ->
      let start = here lx in
      advance lx;
      advance lx;
      let rec close () =
        if at_end lx then Srcloc.error start "unterminated block comment"
        else if
          peek lx = '*'
          && lx.pos + 1 < String.length lx.src
          && lx.src.[lx.pos + 1] = '/'
        then begin
          advance lx;
          advance lx
        end
        else begin
          advance lx;
          close ()
        end
      in
      close ();
      skip_space lx
    | _ -> ())
  | _ -> ()

let read_ident lx =
  let start = lx.pos in
  while is_ident_char (peek lx) do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

(* [finish] stamps the token with its start position and the position
   one past its last character, giving the parser real spans. *)
let next lx =
  skip_space lx;
  let pos = here lx in
  let finish tok = (tok, pos, here lx) in
  match peek lx with
  | _ when at_end lx -> finish Token.Eof
  | c when is_ident_start c ->
    let word = read_ident lx in
    let tok =
      match Token.keyword_of_string word with
      | Some kw -> kw
      | None -> Token.Ident word
    in
    finish tok
  | '{' ->
    advance lx;
    finish Token.Lbrace
  | '}' ->
    advance lx;
    finish Token.Rbrace
  | '(' ->
    advance lx;
    finish Token.Lparen
  | ')' ->
    advance lx;
    finish Token.Rparen
  | ',' ->
    advance lx;
    finish Token.Comma
  | ';' ->
    advance lx;
    finish Token.Semi
  | '=' ->
    advance lx;
    finish Token.Eq
  | '.' ->
    advance lx;
    finish Token.Dot
  | '*' ->
    advance lx;
    finish Token.Star
  | ':' ->
    advance lx;
    if peek lx = ':' then begin
      advance lx;
      finish Token.Coloncolon
    end
    else finish Token.Colon
  | c -> Srcloc.error pos "invalid character %C" c

let tokenize ~file src =
  let lx = create ~file src in
  let rec loop acc =
    let ((tok, _, _) as t) = next lx in
    let acc = t :: acc in
    match tok with
    | Token.Eof -> List.rev acc
    | _ -> loop acc
  in
  loop []
