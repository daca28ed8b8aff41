(* Cast safety: the paper's headline precision client.

   A container-heavy program in which every downcast is actually safe —
   but only a sufficiently context-sensitive analysis can prove it.
   Shows, per analysis, which casts remain "may fail", through the
   diagnostics subsystem (pta_checkers — the API behind `pointsto
   check`).

     dune exec examples/cast_safety.exe *)

module Driver = Pta_driver.Driver
module Diagnostic = Pta_checkers.Diagnostic
module Results = Pta_checkers.Results
module Checkers = Pta_checkers.Checkers

let source =
  {|
  class Token {}
  class WordToken extends Token {}
  class NumberToken extends Token {}

  class Lexer {
    method wordStream() : List {
      var list = new ArrayList();
      list.add(new WordToken);
      list.add(new WordToken);
      return list;
    }
    method numberStream() : List {
      var list = new ArrayList();
      list.add(new NumberToken);
      return list;
    }
  }

  class Main {
    static method main() {
      var lexer = new Lexer;
      var words = lexer.wordStream();
      var numbers = lexer.numberStream();
      // Both casts are safe: each list holds only one token kind.
      var w = (WordToken) words.get(null);
      var n = (NumberToken) numbers.get(null);
    }
  }
  |}

(* Only report findings in the user program — the mini-JDK has casts and
   unreachable methods of its own.  The CLI does the same filtering via
   --include-stdlib. *)
let in_user_code (d : Diagnostic.t) =
  match d.span with
  | Some sp -> String.equal sp.left.file "cast_safety"
  | None -> false

let () =
  let program =
    match Driver.load_string ~name:"cast_safety" source with
    | Ok program -> program
    | Error e -> Driver.report_and_exit e
  in
  List.iter
    (fun name ->
      let solver =
        match Driver.run program ~analysis:name with
        | Ok r -> r.Driver.solver
        | Error e -> Driver.report_and_exit e
      in
      let results = Results.of_solver solver in
      let diags =
        List.filter in_user_code (Checkers.run ~only:[ "may-fail-cast" ] results)
      in
      Printf.printf "== %s: %d cast(s) in the user program may fail\n" name
        (List.length diags);
      List.iter (fun d -> Format.printf "%a@." Diagnostic.pp d) diags;
      (* The closing note relies on this: receiver-object contexts keep
         the two lists apart, so every user cast is proven safe. *)
      if List.mem name [ "1obj"; "2obj+H"; "S-2obj+H" ] then assert (diags = []))
    [ "insens"; "1call"; "1obj"; "2type+H"; "2obj+H"; "S-2obj+H" ];
  print_newline ();
  print_endline
    "insens/1call conflate the two lists' contents inside ArrayList.add;";
  print_endline
    "1obj and 2obj+H separate the adds by receiver allocation site.  Note";
  print_endline
    "2type+H fails: both lists are allocated in class Lexer, so its";
  print_endline
    "class-level contexts merge them — exactly the moderate precision loss";
  print_endline "the paper reports for type-sensitivity."
