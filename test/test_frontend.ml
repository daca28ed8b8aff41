(** Frontend tests: lexer, parser, and the lowering pass, including
    error reporting with positions. *)

module Ir = Pta_ir.Ir
open Pta_frontend

let token = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Token.to_string t)) ( = )

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map (fun (t, _, _) -> t) (Lexer.tokenize ~file:"<t>" src)

let lexer_tests =
  [
    Alcotest.test_case "keywords vs identifiers" `Quick (fun () ->
        Alcotest.(check (list token))
          "tokens"
          Token.[ Kw_class; Ident "classy"; Kw_new; Ident "news"; Eof ]
          (toks "class classy new news"));
    Alcotest.test_case "punctuation incl ::" `Quick (fun () ->
        Alcotest.(check (list token))
          "tokens"
          Token.[ Ident "A"; Coloncolon; Ident "m"; Lparen; Rparen; Semi;
                  Colon; Star; Eof ]
          (toks "A::m(); : *"));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        Alcotest.(check (list token))
          "tokens"
          Token.[ Ident "a"; Ident "b"; Eof ]
          (toks "a // comment\n/* block\nspanning */ b"));
    Alcotest.test_case "positions track lines and columns" `Quick (fun () ->
        let all = Lexer.tokenize ~file:"<t>" "ab\n  cd" in
        match all with
        | [ (_, p1, q1); (_, p2, q2); _ ] ->
          Alcotest.(check (pair int int)) "ab" (1, 1) (p1.Srcloc.line, p1.Srcloc.col);
          Alcotest.(check (pair int int)) "ab end" (1, 3) (q1.Srcloc.line, q1.Srcloc.col);
          Alcotest.(check (pair int int)) "cd" (2, 3) (p2.Srcloc.line, p2.Srcloc.col);
          Alcotest.(check (pair int int)) "cd end" (2, 5) (q2.Srcloc.line, q2.Srcloc.col)
        | _ -> Alcotest.fail "expected three tokens");
    Alcotest.test_case "invalid character reported" `Quick (fun () ->
        match toks "a ? b" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Srcloc.Error (_, msg) ->
          Alcotest.(check bool) "message" true
            (String.length msg > 0 && String.sub msg 0 7 = "invalid"));
    Alcotest.test_case "unterminated block comment reported" `Quick (fun () ->
        match toks "a /* oops" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Srcloc.Error (_, _) -> ());
    (* Once every word of a source has been seen, lexing allocates
       nothing per token: lexing 99 more copies of a unit costs the minor
       words of an empty loop measured the same way (the measurement
       itself boxes a constant number of floats, identical in both
       runs). *)
    Alcotest.test_case "seen words lex without allocation" `Quick (fun () ->
        let unit =
          "class A extends B implements I {\n  static field s : A;\n\
           \  method m(x, y) {\n    var v = (A) x.f; /* cast */\n\
           \    B::g(v, this); // call\n\
           \    if (*) { v = null; } else { return v; }\n  }\n}\n"
        in
        let copies = 100 in
        let lx =
          Lexer.create ~file:"<t>"
            (String.concat "" (List.init copies (fun _ -> unit)))
        in
        let per_copy = List.length (toks unit) - 1 in
        for _ = 1 to per_copy do
          ignore (Lexer.next lx)
        done;
        let minor_cost f =
          let a = Gc.minor_words () in
          f ();
          let b = Gc.minor_words () in
          b -. a
        in
        let n = ref 0 in
        let empty () = for _ = 1 to per_copy * (copies - 1) do () done in
        let lex () = while Lexer.next lx <> Token.Eof do incr n done in
        empty ();
        let baseline = minor_cost empty in
        let cost = minor_cost lex in
        Alcotest.(check int) "tokens lexed" (per_copy * (copies - 1)) !n;
        Alcotest.(check (float 0.)) "no allocation per token" baseline cost);
  ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse src = Parser.parse_string ~file:"<t>" src

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let expect_syntax_error src fragment =
  match parse src with
  | _ -> Alcotest.failf "expected syntax error on %S" src
  | exception Srcloc.Error (_, msg) ->
    if not (contains msg fragment) then
      Alcotest.failf "error %S does not mention %S" msg fragment

let parser_tests =
  [
    Alcotest.test_case "class with members" `Quick (fun () ->
        match parse "class A extends B implements I, J { field f; method m(x, y) { } }" with
        | [ c ] ->
          Alcotest.(check string) "name" "A" c.Ast.c_name;
          Alcotest.(check (option string)) "super" (Some "B") c.Ast.c_super;
          Alcotest.(check (list string)) "ifaces" [ "I"; "J" ] c.Ast.c_ifaces;
          Alcotest.(check int) "fields" 1 (List.length c.Ast.c_fields);
          (match c.Ast.c_meths with
          | [ m ] ->
            Alcotest.(check (list string)) "params" [ "x"; "y" ] m.Ast.m_params
          | _ -> Alcotest.fail "one method expected")
        | _ -> Alcotest.fail "one class expected");
    Alcotest.test_case "interface methods are abstract" `Quick (fun () ->
        match parse "interface I { method m(x); }" with
        | [ c ] ->
          Alcotest.(check bool) "kind" true (c.Ast.c_kind = Ast.K_interface);
          Alcotest.(check bool) "abstract" true
            (List.for_all (fun m -> m.Ast.m_abstract) c.Ast.c_meths)
        | _ -> Alcotest.fail "one interface expected");
    Alcotest.test_case "expression statements must be calls" `Quick (fun () ->
        expect_syntax_error "class A { method m() { x; } }" "must be a call");
    Alcotest.test_case "chained postfix parses" `Quick (fun () ->
        match parse "class A { method m(x) { var v = x.f.g(this).h; } }" with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "parse failed");
    Alcotest.test_case "casts parse with nesting" `Quick (fun () ->
        match parse "class A { method m(x) { var v = (A) (B) x.f; } }" with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "parse failed");
    Alcotest.test_case "if requires star condition" `Quick (fun () ->
        expect_syntax_error "class A { method m() { if (x) { } } }" "expected");
    Alcotest.test_case "missing semicolon reported" `Quick (fun () ->
        expect_syntax_error "class A { method m() { var x = this } }" "expected");
    Alcotest.test_case "static interface methods rejected" `Quick (fun () ->
        expect_syntax_error "interface I { static method m(); }" "static");
    (* The parser pulls tokens on demand, but a lexical error anywhere in
       the file still wins over a syntax error before it. *)
    Alcotest.test_case "lexical error wins over earlier syntax error" `Quick
      (fun () ->
        let body = "class A {\n  method m() {\n    var x = ;\n  }\n}\n" in
        let error_at src =
          match parse src with
          | _ -> Alcotest.failf "expected an error on %S" src
          | exception Srcloc.Error (p, msg) ->
            Format.asprintf "%a" Srcloc.pp_error (p, msg)
        in
        Alcotest.(check string) "syntax error alone"
          "<t>:3:13: error: expected expression but found ';'" (error_at body);
        Alcotest.(check string) "stray character later"
          "<t>:6:1: error: invalid character '#'" (error_at (body ^ "#\n")));
  ]

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let lower src = Frontend.program_of_string ~file:"<t>" src

let expect_semantic_error src fragment =
  match lower src with
  | _ -> Alcotest.failf "expected semantic error on %S" src
  | exception Srcloc.Error (_, msg) ->
    if not (contains msg fragment) then
      Alcotest.failf "error %S does not mention %S" msg fragment

let lower_tests =
  [
    Alcotest.test_case "Object synthesized as root" `Quick (fun () ->
        let p = lower "class A { }" in
        Alcotest.(check bool) "Object exists" true (Ir.Program.find_type p "Object" <> None);
        let a = Option.get (Ir.Program.find_type p "A") in
        Alcotest.(check (option string)) "A extends Object" (Some "Object")
          (Option.map (Ir.Program.type_name p) (Ir.Program.type_info p a).Ir.superclass));
    Alcotest.test_case "entry points discovered" `Quick (fun () ->
        let p = lower "class A { static method main() { } } class B { static method main() { } } class C { method main() { } }" in
        Alcotest.(check int) "two static mains" 2 (List.length (Ir.Program.entries p)));
    Alcotest.test_case "temporaries introduced for nested expressions" `Quick
      (fun () ->
        let p =
          lower
            "class A { field f; method id(x) { return x; } static method main() { var a = new A; var b = a.id(a.f); } }"
        in
        (* a.f must be loaded into a temp before the call *)
        let main = Option.get (Ir.Program.find_meth p "A" "main" 0) in
        let body = (Ir.Program.meth_info p main).Ir.body in
        let loads = ref 0 and calls = ref 0 in
        Ir.iter_instrs
          (fun i ->
            match i with
            | Ir.Load _ -> incr loads
            | Ir.Virtual_call _ -> incr calls
            | _ -> ())
          body;
        Alcotest.(check int) "one load" 1 !loads;
        Alcotest.(check int) "one call" 1 !calls);
    Alcotest.test_case "returns merge into one return variable" `Quick (fun () ->
        let p =
          lower
            "class A { method pick(x, y) { if (*) { return x; } return y; } }"
        in
        let m = Option.get (Ir.Program.find_meth p "A" "pick" 2) in
        Alcotest.(check bool) "has ret var" true
          ((Ir.Program.meth_info p m).Ir.ret_var <> None));
    Alcotest.test_case "inheritance cycle detected" `Quick (fun () ->
        expect_semantic_error "class A extends B { } class B extends A { }" "cycle");
    Alcotest.test_case "unknown types reported" `Quick (fun () ->
        expect_semantic_error "class A extends Nope { }" "unknown type";
        expect_semantic_error "class A { method m() { var x = new Ghost; } }"
          "unknown type");
    Alcotest.test_case "interface misuse reported" `Quick (fun () ->
        expect_semantic_error "interface I { } class A extends I { }" "cannot extend";
        expect_semantic_error "class B { } class A implements B { }" "not an interface";
        expect_semantic_error "interface I { } class A { method m() { var x = new I; } }"
          "cannot instantiate");
    Alcotest.test_case "static call resolution" `Quick (fun () ->
        expect_semantic_error "class A { method m() { A::nope(); } }" "no static method";
        (* inherited statics resolve *)
        let p =
          lower
            "class A { static method util() { } } class B extends A { } class C { static method main() { B::util(); } }"
        in
        Alcotest.(check bool) "ok" true (Ir.Program.n_meths p > 0));
    Alcotest.test_case "this in static method rejected" `Quick (fun () ->
        expect_semantic_error "class A { static method m() { var x = this; } }"
          "static");
    Alcotest.test_case "unbound variable reported" `Quick (fun () ->
        expect_semantic_error "class A { method m() { var x = y; } }" "unbound");
    Alcotest.test_case "duplicate declarations reported" `Quick (fun () ->
        expect_semantic_error "class A { } class A { }" "duplicate type";
        expect_semantic_error "class A { method m() { } method m() { } }"
          "duplicate method";
        expect_semantic_error "class A { method m() { var x; var x; } }"
          "duplicate variable";
        expect_semantic_error "class A { method m(x, x) { } }" "duplicate parameter");
    Alcotest.test_case "constructor requires init" `Quick (fun () ->
        expect_semantic_error "class A { } class B { method m() { var x = new A(x); } }"
          "no constructor";
        let p =
          lower
            "class A { method init(x) { } } class B { static method main() { var a = new A(null); } }"
        in
        Alcotest.(check bool) "ok" true (Ir.Program.n_meths p > 0));
  ]

let tests = lexer_tests @ parser_tests @ lower_tests
