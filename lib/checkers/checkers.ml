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

(* Fold [f] over the instructions of every reachable method, in method
   order, each with its recorded span; [Program.instr_spans] is aligned
   with [iter_instrs] order. *)
let fold_reachable_instrs (r : Results.t) f init =
  Meth_id.Set.fold
    (fun meth acc ->
      let spans = Program.instr_spans r.program meth in
      let idx = ref 0 and acc = ref acc in
      iter_instrs
        (fun instr ->
          let i = !idx in
          incr idx;
          let span = if i < Array.length spans then Some spans.(i) else None in
          acc := f instr span !acc)
        (Program.meth_info r.program meth).body;
      !acc)
    r.reachable init

let mk info ?span message witnesses =
  {
    Diagnostic.code = info.code;
    severity = info.severity;
    span;
    message;
    witnesses;
  }

(* ------------------------------------------------------------------ *)
(* may-fail-cast                                                       *)
(* ------------------------------------------------------------------ *)

let may_fail_cast_info =
  {
    code = "may-fail-cast";
    summary = "cast may fail at runtime";
    help =
      "The points-to set of the cast operand contains an allocation \
       site whose type is not a subtype of the cast type, so the cast \
       can raise a class-cast error at runtime.  Each incompatible \
       allocation site is reported as a witness.";
    severity = Diagnostic.Error;
  }

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
  fold_reachable_instrs r
    (fun instr span acc ->
      match instr with
      | Cast { source; cast_type; _ } ->
        (match
           Casts.incompatible p r.hierarchy ~cast_type (r.points_to source)
         with
        | [] -> acc
        | heaps ->
          let witnesses =
            List.map
              (fun heap ->
                Budget.check budget;
                {
                  Diagnostic.w_message =
                    Printf.sprintf "may point to %s of type %s, allocated here"
                      (Program.heap_name p heap)
                      (Program.type_name p (Program.heap_info p heap).heap_type);
                  w_span = Program.heap_span p heap;
                  w_detail = provenance_detail session ~var:source ~heap;
                })
              heaps
          in
          mk may_fail_cast_info ?span
            (Printf.sprintf "cast of %s to %s may fail"
               (Program.var_info p source).var_name
               (Program.type_name p cast_type))
            witnesses
          :: acc)
      | Alloc _ | Move _ | Load _ | Store _ | Virtual_call _ | Static_call _
      | Static_load _ | Static_store _ | Throw _ -> acc)
    []

(* ------------------------------------------------------------------ *)
(* null-dereference                                                    *)
(* ------------------------------------------------------------------ *)

let null_dereference_info =
  {
    code = "null-dereference";
    summary = "dereference of a possibly-null variable";
    help =
      "The base variable of a field access or virtual call has an \
       empty points-to set: no allocation ever flows into it, so any \
       execution reaching the instruction dereferences null.";
    severity = Diagnostic.Warning;
  }

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
  fold_reachable_instrs r
    (fun instr span acc ->
      match describe instr with
      | Some (base, message) when Intset.is_empty (r.points_to base) ->
        mk null_dereference_info ?span message [] :: acc
      | _ -> acc)
    []

(* ------------------------------------------------------------------ *)
(* dead-method                                                         *)
(* ------------------------------------------------------------------ *)

let dead_method_info =
  {
    code = "dead-method";
    summary = "method unreachable from every entry point";
    help =
      "The method is declared but the context-insensitive call graph \
       never reaches it from any entry point; it is dead code under \
       the analyzed entry points.";
    severity = Diagnostic.Warning;
  }

let dead_method (r : Results.t) =
  let p = r.program in
  let acc = ref [] in
  Program.iter_meths p (fun meth _mi ->
      if not (Meth_id.Set.mem meth r.reachable) then
        acc :=
          mk dead_method_info
            ?span:(Program.meth_span p meth)
            (Printf.sprintf "method %s is unreachable from every entry point"
               (Program.meth_qualified_name p meth))
            []
          :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* monomorphic-call-site                                               *)
(* ------------------------------------------------------------------ *)

let monomorphic_call_site_info =
  {
    code = "monomorphic-call-site";
    summary = "virtual call resolves to a single target";
    help =
      "The call graph finds exactly one callee for this virtual call; \
       it could be devirtualized (informational).";
    severity = Diagnostic.Note;
  }

let monomorphic_call_site (r : Results.t) =
  let p = r.program in
  fold_reachable_instrs r
    (fun instr span acc ->
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
          mk monomorphic_call_site_info ?span
            (Printf.sprintf "virtual call resolves to the single target %s"
               (Program.meth_qualified_name p target))
            witnesses
          :: acc
        end
        else acc
      | Alloc _ | Move _ | Load _ | Store _ | Cast _ | Static_call _
      | Static_load _ | Static_store _ | Throw _ -> acc)
    []

(* ------------------------------------------------------------------ *)
(* tainted-sink-argument                                               *)
(* ------------------------------------------------------------------ *)

let tainted_sink_argument_info =
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
  }

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
    fold_reachable_instrs r
      (fun instr span acc ->
        let invo =
          match instr with
          | Virtual_call { invo; _ } | Static_call { invo; _ } -> Some invo
          | Alloc _ | Move _ | Load _ | Store _ | Cast _ | Static_load _
          | Static_store _ | Throw _ -> None
        in
        match invo with
        | None -> acc
        | Some invo -> (
          match Hashtbl.find_opt by_invo (Invo_id.to_int invo) with
          | None -> acc
          | Some flows ->
            let positions = List.sort_uniq compare (List.map fst !flows) in
            List.fold_left
              (fun acc pos ->
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
                        w_span = Program.meth_span p src.Pta_taint.Spec.src_meth;
                        w_detail = s.s_explain flow;
                      })
                    labels
                in
                mk tainted_sink_argument_info ?span
                  (Printf.sprintf
                     "argument %d of sink call %s may carry taint from %s" pos
                     (Program.invo_name p invo)
                     (String.concat ", "
                        (List.map (Pta_taint.Spec.label_name spec) labels)))
                  witnesses
                :: acc)
              acc positions))
      []

(* ------------------------------------------------------------------ *)
(* sanitizer-bypassed                                                  *)
(* ------------------------------------------------------------------ *)

let sanitizer_bypassed_info =
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
  }

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
    fold_reachable_instrs r
      (fun instr span acc ->
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
        | None -> acc
        | Some (targets, args) ->
          let sanitizers =
            Meth_id.Set.filter (Pta_taint.Spec.is_sanitizer spec) targets
          in
          let dirty = List.filter tainted args in
          if Meth_id.Set.is_empty sanitizers || dirty = [] then acc
          else
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
            mk sanitizer_bypassed_info ?span
              (Printf.sprintf
                 "result of sanitizer %s is discarded; %s stays tainted"
                 (Program.meth_qualified_name p (Meth_id.Set.min_elt sanitizers))
                 (String.concat ", "
                    (List.map (fun v -> (Program.var_info p v).var_name) dirty)))
              witnesses
            :: acc)
      []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Every checker with its info, in canonical order. *)
let registry =
  [
    (may_fail_cast_info, fun budget -> may_fail_cast ~budget);
    (null_dereference_info, fun _ -> null_dereference);
    (dead_method_info, fun _ -> dead_method);
    (monomorphic_call_site_info, fun _ -> monomorphic_call_site);
    (tainted_sink_argument_info, fun _ -> tainted_sink_argument);
    (sanitizer_bypassed_info, fun _ -> sanitizer_bypassed);
  ]

let all = List.map fst registry

exception
  Unknown_checker of {
    code : string;
    suggestions : string list;
    available : string list;
  }

let run ?only ?(budget = Budget.unlimited ()) results =
  let selected =
    match only with
    | None -> registry
    | Some codes ->
      let available = List.map (fun i -> i.code) all in
      List.map
        (fun code ->
          match List.find_opt (fun (i, _) -> i.code = code) registry with
          | Some checker -> checker
          | None ->
            raise
              (Unknown_checker
                 {
                   code;
                   suggestions =
                     Pta_context.Strategies.suggest ~cutoff:5 available code;
                   available;
                 }))
        codes
  in
  List.sort Diagnostic.compare
    (List.concat_map
       (fun (_, check) ->
         Budget.check budget;
         check budget results)
       selected)
