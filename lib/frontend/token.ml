(** Tokens of the MJ language. *)

type t =
  | Ident of string
  | Kw_class
  | Kw_interface
  | Kw_extends
  | Kw_implements
  | Kw_field
  | Kw_method
  | Kw_static
  | Kw_var
  | Kw_new
  | Kw_return
  | Kw_if
  | Kw_else
  | Kw_while
  | Kw_this
  | Kw_null
  | Kw_throw
  | Kw_try
  | Kw_catch
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Eq
  | Dot
  | Coloncolon
  | Colon
  | Star
  | Eof

(* Every keyword, with its spelling: the lexer's word table starts with
   these. *)
let keywords =
  [
    ("class", Kw_class);
    ("interface", Kw_interface);
    ("extends", Kw_extends);
    ("implements", Kw_implements);
    ("field", Kw_field);
    ("method", Kw_method);
    ("static", Kw_static);
    ("var", Kw_var);
    ("new", Kw_new);
    ("return", Kw_return);
    ("if", Kw_if);
    ("else", Kw_else);
    ("while", Kw_while);
    ("this", Kw_this);
    ("null", Kw_null);
    ("throw", Kw_throw);
    ("try", Kw_try);
    ("catch", Kw_catch);
  ]

let to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Kw_class -> "'class'"
  | Kw_interface -> "'interface'"
  | Kw_extends -> "'extends'"
  | Kw_implements -> "'implements'"
  | Kw_field -> "'field'"
  | Kw_method -> "'method'"
  | Kw_static -> "'static'"
  | Kw_var -> "'var'"
  | Kw_new -> "'new'"
  | Kw_return -> "'return'"
  | Kw_if -> "'if'"
  | Kw_else -> "'else'"
  | Kw_while -> "'while'"
  | Kw_this -> "'this'"
  | Kw_null -> "'null'"
  | Kw_throw -> "'throw'"
  | Kw_try -> "'try'"
  | Kw_catch -> "'catch'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Semi -> "';'"
  | Eq -> "'='"
  | Dot -> "'.'"
  | Coloncolon -> "'::'"
  | Colon -> "':'"
  | Star -> "'*'"
  | Eof -> "end of input"
