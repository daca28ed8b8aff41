module Ir = Pta_ir.Ir
module Intset = Pta_solver.Intset
module Provenance = Pta_clients.Provenance
module Casts = Pta_clients.Casts
module Budget = Pta_obs.Budget
open Ir

type info = {
  code : string;
  summary : string;
  help : string;
  severity : Diagnostic.severity;
}

let all =
  [
    {
      code = "may-fail-cast";
      summary = "cast may fail at runtime";
      help =
        "The points-to set of the cast operand contains an allocation \
         site whose type is not a subtype of the cast type, so the cast \
         can raise a class-cast error at runtime.  Each incompatible \
         allocation site is reported as a witness.";
      severity = Diagnostic.Error;
    };
    {
      code = "null-dereference";
      summary = "dereference of a possibly-null variable";
      help =
        "The base variable of a field access or virtual call has an \
         empty points-to set: no allocation ever flows into it, so any \
         execution reaching the instruction dereferences null.";
      severity = Diagnostic.Warning;
    };
    {
      code = "dead-method";
      summary = "method unreachable from every entry point";
      help =
        "The method is declared but the context-insensitive call graph \
         never reaches it from any entry point; it is dead code under \
         the analyzed entry points.";
      severity = Diagnostic.Warning;
    };
    {
      code = "monomorphic-call-site";
      summary = "virtual call resolves to a single target";
      help =
        "The call graph finds exactly one callee for this virtual call; \
         it could be devirtualized (informational).";
      severity = Diagnostic.Note;
    };
    {
      code = "tainted-sink-argument";
      summary = "tainted value may reach a sink argument";
      help =
        "The taint analysis finds a context-sensitive flow from a \
         source to this argument of a sink call, uncut by any \
         sanitizer.  Each source label is reported as a witness; when \
         the native engine produced the result, the witness carries the \
         full propagation chain.  Silent unless a taint spec was \
         supplied.";
      severity = Diagnostic.Error;
    };
    {
      code = "sanitizer-bypassed";
      summary = "sanitizer called but its result is discarded";
      help =
        "A tainted value is passed to a sanitizer whose return value is \
         ignored, so the cleansed copy is dropped and the tainted \
         original flows on.  Usually a refactoring slip: the call was \
         meant to replace the value.  Silent unless a taint spec was \
         supplied.";
      severity = Diagnostic.Warning;
    };
  ]

let find code = List.find_opt (fun i -> i.code = code) all
let info code =
  match find code with
  | Some i -> i
  | None -> invalid_arg ("Checkers.info: unknown checker " ^ code)

(* Walk a method's instructions together with their recorded spans;
   [Program.instr_spans] is aligned with [iter_instrs] order. *)
let iter_instrs_with_spans program meth f =
  let mi = Program.meth_info program meth in
  let spans = Program.instr_spans program meth in
  let idx = ref 0 in
  iter_instrs
    (fun instr ->
      let i = !idx in
      incr idx;
      let span = if i < Array.length spans then Some spans.(i) else None in
      f instr span)
    mi.body

let mk code ?span message witnesses =
  {
    Diagnostic.code;
    severity = (info code).severity;
    span;
    message;
    witnesses;
  }

(* ------------------------------------------------------------------ *)
(* may-fail-cast                                                       *)
(* ------------------------------------------------------------------ *)

let provenance_detail session ~var ~heap =
  match session with
  | None -> []
  | Some session ->
    (match Provenance.explain session ~var ~heap with
    | None -> []
    | Some steps ->
      List.map
        (fun (s : Provenance.step) ->
          (if s.is_origin then "origin: " else "via: ") ^ s.description)
        steps)

let may_fail_cast ?(budget = Budget.unlimited ()) (r : Results.t) =
  let p = r.program in
  (* One session answers every witness of the run. *)
  let session = Option.map (Provenance.create ~budget) r.solver in
  Meth_id.Set.fold
    (fun meth acc ->
      let acc_ref = ref acc in
      iter_instrs_with_spans p meth (fun instr span ->
          match instr with
          | Cast { source; cast_type; _ } ->
            (match
               Casts.incompatible p r.hierarchy ~cast_type (r.points_to source)
             with
            | [] -> ()
            | heaps ->
              let witnesses =
                List.map
                  (fun heap ->
                    Budget.check budget;
                    {
                      Diagnostic.w_message =
                        Printf.sprintf "may point to %s of type %s, allocated here"
                          (Program.heap_name p heap)
                          (Program.type_name p
                             (Program.heap_info p heap).heap_type);
                      w_span = Program.heap_span p heap;
                      w_detail = provenance_detail session ~var:source ~heap;
                    })
                  heaps
              in
              let d =
                mk "may-fail-cast" ?span
                  (Printf.sprintf "cast of %s to %s may fail"
                     (Program.var_info p source).var_name
                     (Program.type_name p cast_type))
                  witnesses
              in
              acc_ref := d :: !acc_ref)
          | Alloc _ | Move _ | Load _ | Store _ | Virtual_call _
          | Static_call _ | Static_load _ | Static_store _ | Throw _ -> ());
      !acc_ref)
    r.reachable []

(* ------------------------------------------------------------------ *)
(* null-dereference                                                    *)
(* ------------------------------------------------------------------ *)

let null_dereference (r : Results.t) =
  let p = r.program in
  let describe instr =
    match instr with
    | Load { base; field; _ } ->
      Some
        ( base,
          Printf.sprintf "load of field %s from %s which never points to any object"
            (Program.field_info p field).field_name
            (Program.var_info p base).var_name )
    | Store { base; field; _ } ->
      Some
        ( base,
          Printf.sprintf "store to field %s of %s which never points to any object"
            (Program.field_info p field).field_name
            (Program.var_info p base).var_name )
    | Virtual_call { base; signature; _ } ->
      Some
        ( base,
          Printf.sprintf "virtual call %s.%s on a receiver that never points to any object"
            (Program.var_info p base).var_name
            (Program.sig_info p signature).sig_name )
    | Alloc _ | Move _ | Cast _ | Static_call _ | Static_load _
    | Static_store _ | Throw _ -> None
  in
  Meth_id.Set.fold
    (fun meth acc ->
      let acc_ref = ref acc in
      iter_instrs_with_spans p meth (fun instr span ->
          match describe instr with
          | Some (base, message) when Intset.is_empty (r.points_to base) ->
            acc_ref := mk "null-dereference" ?span message [] :: !acc_ref
          | _ -> ());
      !acc_ref)
    r.reachable []

(* ------------------------------------------------------------------ *)
(* dead-method                                                         *)
(* ------------------------------------------------------------------ *)

let dead_method (r : Results.t) =
  let p = r.program in
  let acc = ref [] in
  Program.iter_meths p (fun meth _mi ->
      if not (Meth_id.Set.mem meth r.reachable) then
        acc :=
          mk "dead-method"
            ?span:(Program.meth_span p meth)
            (Printf.sprintf "method %s is unreachable from every entry point"
               (Program.meth_qualified_name p meth))
            []
          :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* monomorphic-call-site                                               *)
(* ------------------------------------------------------------------ *)

let monomorphic_call_site (r : Results.t) =
  let p = r.program in
  Meth_id.Set.fold
    (fun meth acc ->
      let acc_ref = ref acc in
      iter_instrs_with_spans p meth (fun instr span ->
          match instr with
          | Virtual_call { invo; _ } ->
            let targets = r.invo_targets invo in
            if Meth_id.Set.cardinal targets = 1 then begin
              let target = Meth_id.Set.choose targets in
              let witnesses =
                [
                  {
                    Diagnostic.w_message = "the single target, declared here";
                    w_span = Program.meth_span p target;
                    w_detail = [];
                  };
                ]
              in
              acc_ref :=
                mk "monomorphic-call-site" ?span
                  (Printf.sprintf "virtual call resolves to the single target %s"
                     (Program.meth_qualified_name p target))
                  witnesses
                :: !acc_ref
            end
          | Alloc _ | Move _ | Load _ | Store _ | Cast _ | Static_call _
          | Static_load _ | Static_store _ | Throw _ -> ());
      !acc_ref)
    r.reachable []

(* ------------------------------------------------------------------ *)
(* tainted-sink-argument                                               *)
(* ------------------------------------------------------------------ *)

let tainted_sink_argument (r : Results.t) =
  match r.taint with
  | None -> []
  | Some s ->
    let p = r.program in
    let spec = s.Pta_taint.Taint.s_spec in
    let sources = Array.of_list (Pta_taint.Spec.sources spec) in
    (* flows grouped by invocation, then by argument position *)
    let by_invo : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (f : Pta_taint.Taint.flow) ->
        let key = Invo_id.to_int f.f_invo in
        match Hashtbl.find_opt by_invo key with
        | Some l -> l := (f.f_pos, f.f_label) :: !l
        | None -> Hashtbl.add by_invo key (ref [ (f.f_pos, f.f_label) ]))
      s.s_flows;
    Meth_id.Set.fold
      (fun meth acc ->
        let acc_ref = ref acc in
        iter_instrs_with_spans p meth (fun instr span ->
            let invo =
              match instr with
              | Virtual_call { invo; _ } | Static_call { invo; _ } -> Some invo
              | Alloc _ | Move _ | Load _ | Store _ | Cast _ | Static_load _
              | Static_store _ | Throw _ -> None
            in
            match invo with
            | None -> ()
            | Some invo -> (
              match Hashtbl.find_opt by_invo (Invo_id.to_int invo) with
              | None -> ()
              | Some flows ->
                let positions =
                  List.sort_uniq compare (List.map fst !flows)
                in
                List.iter
                  (fun pos ->
                    let labels =
                      List.sort_uniq compare
                        (List.filter_map
                           (fun (pp, l) -> if pp = pos then Some l else None)
                           !flows)
                    in
                    let witnesses =
                      List.map
                        (fun label ->
                          let src = sources.(label) in
                          let flow =
                            {
                              Pta_taint.Taint.f_label = label;
                              f_invo = invo;
                              f_pos = pos;
                            }
                          in
                          {
                            Diagnostic.w_message =
                              Printf.sprintf "source %s, declared here"
                                (Pta_taint.Spec.label_name spec label);
                            w_span =
                              Program.meth_span p src.Pta_taint.Spec.src_meth;
                            w_detail = s.s_explain flow;
                          })
                        labels
                    in
                    let d =
                      mk "tainted-sink-argument" ?span
                        (Printf.sprintf
                           "argument %d of sink call %s may carry taint from %s"
                           pos
                           (Program.invo_name p invo)
                           (String.concat ", "
                              (List.map
                                 (Pta_taint.Spec.label_name spec)
                                 labels)))
                        witnesses
                    in
                    acc_ref := d :: !acc_ref)
                  positions));
        !acc_ref)
      r.reachable []

(* ------------------------------------------------------------------ *)
(* sanitizer-bypassed                                                  *)
(* ------------------------------------------------------------------ *)

let sanitizer_bypassed (r : Results.t) =
  match r.taint with
  | None -> []
  | Some s ->
    let p = r.program in
    let spec = s.Pta_taint.Taint.s_spec in
    let tainted v =
      match Var_id.Tbl.find_opt s.s_tainted v with
      | Some labels -> not (Intset.is_empty labels)
      | None -> false
    in
    Meth_id.Set.fold
      (fun meth acc ->
        let acc_ref = ref acc in
        iter_instrs_with_spans p meth (fun instr span ->
            let call =
              match instr with
              | Static_call { callee; args; ret_target = None; _ } ->
                Some (Meth_id.Set.singleton callee, args)
              | Virtual_call { invo; args; ret_target = None; _ } ->
                Some (r.invo_targets invo, args)
              | Virtual_call _ | Static_call _ | Alloc _ | Move _ | Load _
              | Store _ | Cast _ | Static_load _ | Static_store _ | Throw _ ->
                None
            in
            match call with
            | None -> ()
            | Some (targets, args) ->
              let sanitizers =
                Meth_id.Set.filter
                  (Pta_taint.Spec.is_sanitizer spec)
                  targets
              in
              let dirty = List.filter tainted args in
              if (not (Meth_id.Set.is_empty sanitizers)) && dirty <> [] then begin
                let witnesses =
                  List.map
                    (fun san ->
                      {
                        Diagnostic.w_message = "the sanitizer, declared here";
                        w_span = Program.meth_span p san;
                        w_detail = [];
                      })
                    (Meth_id.Set.elements sanitizers)
                in
                let d =
                  mk "sanitizer-bypassed" ?span
                    (Printf.sprintf
                       "result of sanitizer %s is discarded; %s stays tainted"
                       (Program.meth_qualified_name p
                          (Meth_id.Set.min_elt sanitizers))
                       (String.concat ", "
                          (List.map
                             (fun v -> (Program.var_info p v).var_name)
                             dirty)))
                    witnesses
                in
                acc_ref := d :: !acc_ref
              end);
        !acc_ref)
      r.reachable []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let checker_fn budget code =
  match code with
  | "may-fail-cast" -> may_fail_cast ~budget
  | "null-dereference" -> null_dereference
  | "dead-method" -> dead_method
  | "monomorphic-call-site" -> monomorphic_call_site
  | "tainted-sink-argument" -> tainted_sink_argument
  | "sanitizer-bypassed" -> sanitizer_bypassed
  | _ -> assert false

exception
  Unknown_checker of {
    code : string;
    suggestions : string list;
    available : string list;
  }

(* Same scoring as [Pta_context.Strategies.suggest], over checker codes. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest code =
  let target = String.lowercase_ascii code in
  let scored =
    List.filter_map
      (fun i ->
        let d = levenshtein target (String.lowercase_ascii i.code) in
        if d <= 5 then Some (d, i.code) else None)
      all
  in
  let sorted = List.sort compare scored in
  List.filteri (fun i _ -> i < 3) (List.map snd sorted)

let run ?only ?(budget = Budget.unlimited ()) results =
  let selected =
    match only with
    | None -> all
    | Some codes ->
      List.map
        (fun code ->
          match find code with
          | Some i -> i
          | None ->
            raise
              (Unknown_checker
                 {
                   code;
                   suggestions = suggest code;
                   available = List.map (fun i -> i.code) all;
                 }))
        codes
  in
  List.sort Diagnostic.compare
    (List.concat_map
       (fun i ->
         Budget.check budget;
         checker_fn budget i.code results)
       selected)
