(** Workload generator tests: determinism, well-formedness of every
    preset, and basic shape expectations. *)

module Ir = Pta_ir.Ir
module Profile = Pta_workloads.Profile
module Gen = Pta_workloads.Gen
module Workloads = Pta_workloads.Workloads

let tests =
  [
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        let p = Option.get (Profile.by_name "tiny") in
        Alcotest.(check string) "same source" (Gen.generate p) (Gen.generate p));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let p = Option.get (Profile.by_name "tiny") in
        let p' = { p with Profile.seed = 999L } in
        Alcotest.(check bool) "sources differ" true (Gen.generate p <> Gen.generate p'));
    Alcotest.test_case "every preset parses and lowers" `Slow (fun () ->
        List.iter
          (fun profile ->
            let program = Workloads.program profile in
            Alcotest.(check bool)
              (profile.Profile.name ^ " has one entry")
              true
              (List.length (Ir.Program.entries program) = 1))
          Profile.dacapo);
    Alcotest.test_case "presets ordered by rough size" `Slow (fun () ->
        let size name =
          Ir.Program.n_meths
            (Workloads.program (Option.get (Profile.by_name name)))
        in
        Alcotest.(check bool) "bloat is the largest" true
          (size "bloat" > size "luindex");
        Alcotest.(check bool) "luindex is small" true (size "luindex" < size "chart"));
    Alcotest.test_case "feature toggles show up in the source" `Quick (fun () ->
        let has_sub s sub =
          let n = String.length sub and h = String.length s in
          let rec at i = i + n <= h && (String.sub s i n = sub || at (i + 1)) in
          at 0
        in
        let src name = Gen.generate (Option.get (Profile.by_name name)) in
        Alcotest.(check bool) "pmd has visitors" true (has_sub (src "pmd") "interface V0");
        Alcotest.(check bool) "luindex has no visitors" false
          (has_sub (src "luindex") "interface V0");
        Alcotest.(check bool) "chart has listeners" true
          (has_sub (src "chart") "class Registry");
        Alcotest.(check bool) "xalan has wrappers" true (has_sub (src "xalan") "class W0"));
    Alcotest.test_case "scale grows the program" `Slow (fun () ->
        let tiny = Option.get (Profile.by_name "tiny") in
        let bigger = Profile.scale 2.0 tiny in
        let n p =
          Ir.Program.n_meths
            (Pta_frontend.Frontend.program_of_sources
               [
                 (Pta_mjdk.Mjdk.file_name, Pta_mjdk.Mjdk.source);
                 ("<gen>", Gen.generate p);
               ])
        in
        Alcotest.(check bool) "more methods" true (n bigger > n tiny));
    (* Loading starts from the declarations parsed at build time, so they
       must be what parsing the source gives now, positions included. *)
    Alcotest.test_case "mjdk decls match its source" `Quick (fun () ->
        Alcotest.(check bool) "structurally equal" true
          (Pta_mjdk.Mjdk.decls
          = Pta_frontend.Frontend.parse ~file:Pta_mjdk.Mjdk.file_name
              Pta_mjdk.Mjdk.source));
    Alcotest.test_case "mjdk parses standalone" `Quick (fun () ->
        let program =
          Pta_frontend.Frontend.program_of_string ~file:Pta_mjdk.Mjdk.file_name
            Pta_mjdk.Mjdk.source
        in
        Alcotest.(check bool) "has ArrayList" true
          (Ir.Program.find_type program "ArrayList" <> None);
        Alcotest.(check bool) "has HashMap" true
          (Ir.Program.find_type program "HashMap" <> None);
        Alcotest.(check bool) "no entry points" true
          (Ir.Program.entries program = []));
  ]
