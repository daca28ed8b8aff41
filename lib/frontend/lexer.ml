(* [next] allocates nothing per token.  It returns the token itself and
   leaves the token's extent in mutable fields, and a word (identifier
   or keyword) is looked up by its source bytes in [words], which holds
   one token per distinct word: a repeated name returns the same
   [Token.Ident] value, its string shared. *)
type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
  mutable start_line : int;
  mutable start_col : int;
  mutable end_line : int;
  mutable end_col : int;
  mutable words : string array;
      (* open addressing with linear probing; [""] is a free slot *)
  mutable word_tokens : Token.t array;  (* the token of [words.(i)] *)
  mutable n_words : int;
}

let hash_bytes s off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h lxor (!h lsr 17)

let same_bytes word s off len =
  String.length word = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get word !i = String.unsafe_get s (off + !i) do
    incr i
  done;
  !i = len

(* The slot holding [s.[off .. off+len-1]], or the free slot where it
   belongs. *)
let rec slot words s off len i =
  let word = Array.unsafe_get words i in
  if String.length word = 0 || same_bytes word s off len then i
  else slot words s off len ((i + 1) land (Array.length words - 1))

let find_slot words s off len =
  slot words s off len (hash_bytes s off len land (Array.length words - 1))

(* The table stays at most half full. *)
let rec add_word lx word tok =
  let i = find_slot lx.words word 0 (String.length word) in
  lx.words.(i) <- word;
  lx.word_tokens.(i) <- tok;
  lx.n_words <- lx.n_words + 1;
  if 2 * lx.n_words > Array.length lx.words then begin
    let words = lx.words and word_tokens = lx.word_tokens in
    lx.words <- Array.make (2 * Array.length words) "";
    lx.word_tokens <- Array.make (2 * Array.length words) Token.Eof;
    lx.n_words <- 0;
    Array.iteri
      (fun i word -> if String.length word > 0 then add_word lx word word_tokens.(i))
      words
  end

let word lx off len =
  let i = find_slot lx.words lx.src off len in
  if String.length (Array.unsafe_get lx.words i) > 0 then
    Array.unsafe_get lx.word_tokens i
  else begin
    let word = String.sub lx.src off len in
    let tok = Token.Ident word in
    add_word lx word tok;
    tok
  end

let create ~file src =
  let lx =
    {
      src;
      file;
      pos = 0;
      line = 1;
      bol = 0;
      start_line = 1;
      start_col = 1;
      end_line = 1;
      end_col = 1;
      words = Array.make 256 "";
      word_tokens = Array.make 256 Token.Eof;
      n_words = 0;
    }
  in
  List.iter (fun (word, kw) -> add_word lx word kw) Token.keywords;
  lx

let file lx = lx.file
let start_line lx = lx.start_line
let start_col lx = lx.start_col
let end_line lx = lx.end_line
let end_col lx = lx.end_col
let pos_at lx line col = { Srcloc.file = lx.file; line; col }

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

(* Past the [*/] closing a comment opened at [line]:[col]. *)
let rec skip_block_comment lx line col =
  if at_end lx then Srcloc.error (pos_at lx line col) "unterminated block comment"
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
    skip_block_comment lx line col
  end

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
      let line = lx.line and col = lx.pos - lx.bol + 1 in
      advance lx;
      advance lx;
      skip_block_comment lx line col;
      skip_space lx
    | _ -> ())
  | _ -> ()

(* One character of punctuation: never a newline, so [line] stays. *)
let punct lx tok =
  lx.pos <- lx.pos + 1;
  tok

let next lx =
  skip_space lx;
  lx.start_line <- lx.line;
  lx.start_col <- lx.pos - lx.bol + 1;
  let tok =
    if at_end lx then Token.Eof
    else
      match String.unsafe_get lx.src lx.pos with
      | c when is_ident_start c ->
        let off = lx.pos in
        while (not (at_end lx)) && is_ident_char (String.unsafe_get lx.src lx.pos) do
          lx.pos <- lx.pos + 1
        done;
        word lx off (lx.pos - off)
      | '{' -> punct lx Token.Lbrace
      | '}' -> punct lx Token.Rbrace
      | '(' -> punct lx Token.Lparen
      | ')' -> punct lx Token.Rparen
      | ',' -> punct lx Token.Comma
      | ';' -> punct lx Token.Semi
      | '=' -> punct lx Token.Eq
      | '.' -> punct lx Token.Dot
      | '*' -> punct lx Token.Star
      | ':' ->
        lx.pos <- lx.pos + 1;
        if peek lx = ':' then punct lx Token.Coloncolon else Token.Colon
      | c ->
        Srcloc.error (pos_at lx lx.start_line lx.start_col) "invalid character %C" c
  in
  lx.end_line <- lx.line;
  lx.end_col <- lx.pos - lx.bol + 1;
  tok

let tokenize ~file src =
  let lx = create ~file src in
  let rec loop acc =
    let tok = next lx in
    let acc =
      (tok, pos_at lx lx.start_line lx.start_col, pos_at lx lx.end_line lx.end_col)
      :: acc
    in
    match tok with
    | Token.Eof -> List.rev acc
    | _ -> loop acc
  in
  loop []
