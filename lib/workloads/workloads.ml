let names = List.map (fun p -> p.Profile.name) Profile.dacapo

let source profile =
  Pta_mjdk.Mjdk.source ^ "\n" ^ Gen.generate profile

let cache : (string, Pta_ir.Ir.Program.t) Hashtbl.t = Hashtbl.create 16

let program profile =
  match Hashtbl.find_opt cache profile.Profile.name with
  | Some p -> p
  | None ->
    let program =
      Pta_frontend.Lower.program
        (Pta_mjdk.Mjdk.decls
        @ Pta_frontend.Frontend.parse
            ~file:("<" ^ profile.Profile.name ^ ">")
            (Gen.generate profile))
    in
    Hashtbl.add cache profile.Profile.name program;
    program

let program_by_name name = Option.map program (Profile.by_name name)
