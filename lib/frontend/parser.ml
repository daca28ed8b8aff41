(* The parser pulls tokens from the lexer on demand: it holds the
   current token and at most one token of lookahead, for [peek2], each
   with its extent as line and column numbers.  A [Srcloc.pos] is built
   only when a node asks for one, at most once per token: [tok_pos] and
   [last_end] hold [unbuilt] until then. *)
type state = {
  lx : Lexer.t;
  mutable tok : Token.t;
  mutable line : int;
  mutable col : int;
  mutable end_line : int;
  mutable end_col : int;
  mutable tok_pos : Srcloc.pos;
  mutable has_ahead : bool;
  mutable ahead : Token.t;
  mutable ahead_line : int;
  mutable ahead_col : int;
  mutable ahead_end_line : int;
  mutable ahead_end_col : int;
  mutable last_line : int;
  mutable last_col : int;
  mutable last_end : Srcloc.pos;
      (* position just past the last consumed token: the right edge of
         any span closed now *)
}

let unbuilt = { Srcloc.dummy with line = -1 }

let peek st = st.tok

let pos st =
  if st.tok_pos == unbuilt then
    st.tok_pos <- { Srcloc.file = Lexer.file st.lx; line = st.line; col = st.col };
  st.tok_pos

let last_end st =
  if st.last_end == unbuilt then
    st.last_end <-
      { Srcloc.file = Lexer.file st.lx; line = st.last_line; col = st.last_col };
  st.last_end

let peek2 st =
  if st.has_ahead then st.ahead
  else if st.tok = Token.Eof then Token.Eof
  else begin
    let lx = st.lx in
    st.ahead <- Lexer.next lx;
    st.ahead_line <- Lexer.start_line lx;
    st.ahead_col <- Lexer.start_col lx;
    st.ahead_end_line <- Lexer.end_line lx;
    st.ahead_end_col <- Lexer.end_col lx;
    st.has_ahead <- true;
    st.ahead
  end

(* The lexer keeps returning [Eof] after [Eof], so advancing past the
   end stays there. *)
let advance st =
  st.last_line <- st.end_line;
  st.last_col <- st.end_col;
  st.last_end <- unbuilt;
  st.tok_pos <- unbuilt;
  if st.has_ahead then begin
    st.has_ahead <- false;
    st.tok <- st.ahead;
    st.line <- st.ahead_line;
    st.col <- st.ahead_col;
    st.end_line <- st.ahead_end_line;
    st.end_col <- st.ahead_end_col
  end
  else begin
    let lx = st.lx in
    st.tok <- Lexer.next lx;
    st.line <- Lexer.start_line lx;
    st.col <- Lexer.start_col lx;
    st.end_line <- Lexer.end_line lx;
    st.end_col <- Lexer.end_col lx
  end

(* Span from [left] to the end of the last consumed token. *)
let close st left = Srcloc.span left (last_end st)

let expect st tok =
  if peek st = tok then advance st
  else
    Srcloc.error (pos st) "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek st))

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek st with
  | Token.Ident name ->
    advance st;
    name
  | t -> Srcloc.error (pos st) "expected identifier but found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st =
  let at = pos st in
  match peek st with
  | Token.Lparen ->
    (* Casts are the only parenthesized form at expression head. *)
    advance st;
    let ty = expect_ident st in
    expect st Token.Rparen;
    let operand = parse_expr st in
    { Ast.e = Ast.E_cast (ty, operand); e_pos = at; e_span = close st at }
  | _ ->
    let head = parse_primary st in
    parse_postfix st head

and parse_primary st =
  let at = pos st in
  match peek st with
  | Token.Kw_this ->
    advance st;
    { Ast.e = Ast.E_this; e_pos = at; e_span = close st at }
  | Token.Kw_null ->
    advance st;
    { Ast.e = Ast.E_null; e_pos = at; e_span = close st at }
  | Token.Kw_new ->
    advance st;
    let cls = expect_ident st in
    let args =
      if peek st = Token.Lparen then Some (parse_args st) else None
    in
    { Ast.e = Ast.E_new (cls, args); e_pos = at; e_span = close st at }
  | Token.Ident name ->
    advance st;
    if peek st = Token.Coloncolon then begin
      advance st;
      let member = expect_ident st in
      if peek st = Token.Lparen then
        let args = parse_args st in
        { Ast.e = Ast.E_scall (name, member, args); e_pos = at;
          e_span = close st at }
      else
        { Ast.e = Ast.E_sfield (name, member); e_pos = at;
          e_span = close st at }
    end
    else { Ast.e = Ast.E_var name; e_pos = at; e_span = close st at }
  | t -> Srcloc.error at "expected expression but found %s" (Token.to_string t)

and parse_postfix st head =
  if peek st = Token.Dot then begin
    let at = pos st in
    let left = head.Ast.e_span.Srcloc.left in
    advance st;
    let member = expect_ident st in
    let node =
      if peek st = Token.Lparen then
        let args = parse_args st in
        { Ast.e = Ast.E_vcall (head, member, args); Ast.e_pos = at;
          Ast.e_span = close st left }
      else
        { Ast.e = Ast.E_load (head, member); Ast.e_pos = at;
          Ast.e_span = close st left }
    in
    parse_postfix st node
  end
  else head

and parse_args st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else begin
    let rec more acc =
      let acc = parse_expr st :: acc in
      if accept st Token.Comma then more acc
      else begin
        expect st Token.Rparen;
        List.rev acc
      end
    in
    more []
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_block st =
  expect st Token.Lbrace;
  let rec loop acc =
    if accept st Token.Rbrace then List.rev acc else loop (parse_stmt st :: acc)
  in
  loop []

and parse_stmt st =
  let at = pos st in
  match peek st with
  | Token.Kw_var ->
    advance st;
    let name = expect_ident st in
    let init = if accept st Token.Eq then Some (parse_expr st) else None in
    expect st Token.Semi;
    { Ast.s = Ast.S_decl (name, init); s_pos = at; s_span = close st at }
  | Token.Kw_return ->
    advance st;
    let value = if peek st = Token.Semi then None else Some (parse_expr st) in
    expect st Token.Semi;
    { Ast.s = Ast.S_return value; s_pos = at; s_span = close st at }
  | Token.Kw_if ->
    advance st;
    expect st Token.Lparen;
    expect st Token.Star;
    expect st Token.Rparen;
    let then_branch = parse_block st in
    let else_branch = if accept st Token.Kw_else then parse_block st else [] in
    { Ast.s = Ast.S_if (then_branch, else_branch); s_pos = at;
      s_span = close st at }
  | Token.Kw_while ->
    advance st;
    expect st Token.Lparen;
    expect st Token.Star;
    expect st Token.Rparen;
    let body = parse_block st in
    { Ast.s = Ast.S_while body; s_pos = at; s_span = close st at }
  | Token.Kw_throw ->
    advance st;
    let value = parse_expr st in
    expect st Token.Semi;
    { Ast.s = Ast.S_throw value; s_pos = at; s_span = close st at }
  | Token.Kw_try ->
    advance st;
    let body = parse_block st in
    let rec catches acc =
      if peek st = Token.Kw_catch then begin
        advance st;
        expect st Token.Lparen;
        let cc_type = expect_ident st in
        let cc_var = expect_ident st in
        expect st Token.Rparen;
        let cc_body = parse_block st in
        catches ({ Ast.cc_type; cc_var; cc_body } :: acc)
      end
      else List.rev acc
    in
    let handlers = catches [] in
    if handlers = [] then
      Srcloc.error at "try block needs at least one catch clause";
    { Ast.s = Ast.S_try (body, handlers); s_pos = at; s_span = close st at }
  | _ ->
    let lhs = parse_expr st in
    if accept st Token.Eq then begin
      let rhs = parse_expr st in
      expect st Token.Semi;
      let s_span = close st at in
      match lhs.Ast.e with
      | Ast.E_var name -> { Ast.s = Ast.S_assign (name, rhs); s_pos = at; s_span }
      | Ast.E_load (base, field) ->
        { Ast.s = Ast.S_store (base, field, rhs); s_pos = at; s_span }
      | Ast.E_sfield (cls, field) ->
        { Ast.s = Ast.S_sstore (cls, field, rhs); s_pos = at; s_span }
      | _ -> Srcloc.error at "invalid assignment target"
    end
    else begin
      expect st Token.Semi;
      match lhs.Ast.e with
      | Ast.E_vcall _ | Ast.E_scall _ | Ast.E_new (_, Some _) ->
        { Ast.s = Ast.S_expr lhs; s_pos = at; s_span = close st at }
      | _ -> Srcloc.error at "expression statement must be a call"
    end

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_opt_type_annot st =
  if accept st Token.Colon then Some (expect_ident st) else None

let parse_params st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else begin
    let rec more acc =
      let name = expect_ident st in
      ignore (parse_opt_type_annot st);
      let acc = name :: acc in
      if accept st Token.Comma then more acc
      else begin
        expect st Token.Rparen;
        List.rev acc
      end
    in
    more []
  end

let parse_meth st ~in_interface =
  let at = pos st in
  let static = accept st Token.Kw_static in
  expect st Token.Kw_method;
  let name = expect_ident st in
  let params = parse_params st in
  let ret_ty = parse_opt_type_annot st in
  (* The declaration header only — bodies would drown diagnostics that
     point at "this method". *)
  let m_span = close st at in
  if in_interface then begin
    if static then Srcloc.error at "interfaces cannot declare static methods";
    expect st Token.Semi;
    {
      Ast.m_name = name;
      m_static = false;
      m_abstract = true;
      m_params = params;
      m_ret_ty = ret_ty;
      m_body = [];
      m_pos = at;
      m_span;
    }
  end
  else
    let body = parse_block st in
    {
      Ast.m_name = name;
      m_static = static;
      m_abstract = false;
      m_params = params;
      m_ret_ty = ret_ty;
      m_body = body;
      m_pos = at;
      m_span;
    }

let parse_field st ~static =
  let at = pos st in
  if static then expect st Token.Kw_static;
  expect st Token.Kw_field;
  let name = expect_ident st in
  let ty = parse_opt_type_annot st in
  expect st Token.Semi;
  { Ast.f_name = name; f_static = static; f_ty = ty; f_pos = at }

let parse_name_list st =
  let rec more acc =
    let acc = expect_ident st :: acc in
    if accept st Token.Comma then more acc else List.rev acc
  in
  more []

let parse_class st =
  let at = pos st in
  let kind =
    match peek st with
    | Token.Kw_class ->
      advance st;
      Ast.K_class
    | Token.Kw_interface ->
      advance st;
      Ast.K_interface
    | t ->
      Srcloc.error at "expected 'class' or 'interface' but found %s"
        (Token.to_string t)
  in
  let name = expect_ident st in
  let super =
    if kind = Ast.K_class && accept st Token.Kw_extends then
      Some (expect_ident st)
    else None
  in
  let ifaces =
    match kind with
    | Ast.K_class ->
      if accept st Token.Kw_implements then parse_name_list st else []
    | Ast.K_interface ->
      if accept st Token.Kw_extends then parse_name_list st else []
  in
  expect st Token.Lbrace;
  let fields = ref [] in
  let meths = ref [] in
  let rec members () =
    if accept st Token.Rbrace then ()
    else begin
      (match peek st with
      | Token.Kw_field -> fields := parse_field st ~static:false :: !fields
      | Token.Kw_static when peek2 st = Token.Kw_field ->
        fields := parse_field st ~static:true :: !fields
      | Token.Kw_method | Token.Kw_static ->
        meths := parse_meth st ~in_interface:(kind = Ast.K_interface) :: !meths
      | t ->
        Srcloc.error (pos st) "expected member declaration but found %s"
          (Token.to_string t));
      members ()
    end
  in
  members ();
  {
    Ast.c_name = name;
    c_kind = kind;
    c_super = super;
    c_ifaces = ifaces;
    c_fields = List.rev !fields;
    c_meths = List.rev !meths;
    c_pos = at;
  }

(* A syntax error reports the first lexical error of the file instead,
   if there is one: the rest of the input is lexed before the syntax
   error is re-raised. *)
let rec drain lx = if Lexer.next lx <> Token.Eof then drain lx

let parse_string ~file src =
  let lx = Lexer.create ~file src in
  let tok = Lexer.next lx in
  let st =
    {
      lx;
      tok;
      line = Lexer.start_line lx;
      col = Lexer.start_col lx;
      end_line = Lexer.end_line lx;
      end_col = Lexer.end_col lx;
      tok_pos = unbuilt;
      has_ahead = false;
      ahead = Token.Eof;
      ahead_line = 0;
      ahead_col = 0;
      ahead_end_line = 0;
      ahead_end_col = 0;
      last_line = 0;
      last_col = 0;
      last_end = Srcloc.dummy;
    }
  in
  let rec loop acc =
    if peek st = Token.Eof then List.rev acc else loop (parse_class st :: acc)
  in
  try loop []
  with Srcloc.Error _ as e ->
    drain lx;
    raise e
