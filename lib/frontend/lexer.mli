(** Hand-written lexer for MJ source text.

    A token costs no allocation once its word has been seen: {!next}
    returns the token alone and keeps its extent in the lexer, and each
    lexer interns identifiers and keywords by their source bytes, so a
    repeated name returns the same [Token.Ident] value. *)

type t

val create : file:string -> string -> t

val next : t -> Token.t
(** Returns the next token; its extent is read with {!start_line},
    {!start_col}, {!end_line} and {!end_col} until the next call.  After
    [Eof] it keeps returning [Eof].  @raise Srcloc.Error on invalid
    input characters or unterminated comments. *)

val file : t -> string

val start_line : t -> int
(** Line of the last token's first character. *)

val start_col : t -> int

val end_line : t -> int
(** Line of the position just past the last token's last character, so
    that start and end form a {!Srcloc.span}. *)

val end_col : t -> int

val tokenize : file:string -> string -> (Token.t * Srcloc.pos * Srcloc.pos) list
(** Entire input, ending with [Eof], each token with its starting
    position and the position just past its last character. *)
