module Type_id = Id.Make ()
module Field_id = Id.Make ()
module Sig_id = Id.Make ()
module Meth_id = Id.Make ()
module Var_id = Id.Make ()
module Heap_id = Id.Make ()
module Invo_id = Id.Make ()

type type_kind =
  | Class
  | Interface

type instr =
  | Alloc of { target : Var_id.t; heap : Heap_id.t }
  | Move of { target : Var_id.t; source : Var_id.t }
  | Load of { target : Var_id.t; base : Var_id.t; field : Field_id.t }
  | Store of { base : Var_id.t; field : Field_id.t; source : Var_id.t }
  | Cast of { target : Var_id.t; source : Var_id.t; cast_type : Type_id.t }
  | Virtual_call of {
      base : Var_id.t;
      signature : Sig_id.t;
      invo : Invo_id.t;
      args : Var_id.t list;
      ret_target : Var_id.t option;
    }
  | Static_call of {
      callee : Meth_id.t;
      invo : Invo_id.t;
      args : Var_id.t list;
      ret_target : Var_id.t option;
    }
  | Static_load of { target : Var_id.t; field : Field_id.t }
  | Static_store of { field : Field_id.t; source : Var_id.t }
  | Throw of { source : Var_id.t }

type handler = {
  catch_type : Type_id.t;
  catch_var : Var_id.t;
  handler_body : code;
}

and code =
  | Instr of instr
  | Seq of code list
  | Branch of code * code
  | Loop of code
  | Try of code * handler list

let rec iter_instrs f = function
  | Instr i -> f i
  | Seq cs -> List.iter (iter_instrs f) cs
  | Branch (a, b) ->
    iter_instrs f a;
    iter_instrs f b
  | Loop c -> iter_instrs f c
  | Try (body, handlers) ->
    iter_instrs f body;
    List.iter (fun h -> iter_instrs f h.handler_body) handlers

let rec fold_instrs f acc = function
  | Instr i -> f acc i
  | Seq cs -> List.fold_left (fold_instrs f) acc cs
  | Branch (a, b) -> fold_instrs f (fold_instrs f acc a) b
  | Loop c -> fold_instrs f acc c
  | Try (body, handlers) ->
    List.fold_left
      (fun acc h -> fold_instrs f acc h.handler_body)
      (fold_instrs f acc body) handlers

let instr_list code = List.rev (fold_instrs (fun acc i -> i :: acc) [] code)

type type_info = {
  type_name : string;
  type_kind : type_kind;
  superclass : Type_id.t option;
  interfaces : Type_id.t list;
  declared : (Sig_id.t * Meth_id.t) list;
}

type field_info = {
  field_name : string;
  field_owner : Type_id.t;
  field_static : bool;
}
type sig_info = { sig_name : string; sig_arity : int }

type meth_info = {
  meth_name : string;
  meth_sig : Sig_id.t;
  meth_owner : Type_id.t;
  meth_static : bool;
  this_var : Var_id.t option;
  formals : Var_id.t array;
  ret_var : Var_id.t option;
  body : code;
}

type var_info = { var_name : string; var_owner : Meth_id.t }

type heap_info = {
  heap_label : string;
  heap_type : Type_id.t;
  heap_owner : Meth_id.t;
}

type invo_info = { invo_label : string; invo_owner : Meth_id.t }

module Program = struct
  type t = {
    types : type_info array;
    fields : field_info array;
    sigs : sig_info array;
    meths : meth_info array;
    vars : var_info array;
    heaps : heap_info array;
    invos : invo_info array;
    entries : Meth_id.t list;
    type_by_name : (string, Type_id.t) Hashtbl.t;
    (* Source-span side tables, populated by the frontend's lowering
       pass and absent ([None] / [[||]]) for programs built directly
       through the Builder (workload generators, tests). *)
    meth_spans : Srcloc.span option array;
    heap_spans : Srcloc.span option array;
    invo_spans : Srcloc.span option array;
    instr_span_tab : Srcloc.span array array;
        (* per method, aligned with [instr_list body]; [[||]] when the
           method has no recorded spans *)
  }

  let type_info p id = p.types.(Type_id.to_int id)
  let field_info p id = p.fields.(Field_id.to_int id)
  let sig_info p id = p.sigs.(Sig_id.to_int id)
  let meth_info p id = p.meths.(Meth_id.to_int id)
  let var_info p id = p.vars.(Var_id.to_int id)
  let heap_info p id = p.heaps.(Heap_id.to_int id)
  let invo_info p id = p.invos.(Invo_id.to_int id)
  let n_types p = Array.length p.types
  let n_fields p = Array.length p.fields
  let n_sigs p = Array.length p.sigs
  let n_meths p = Array.length p.meths
  let n_vars p = Array.length p.vars
  let n_heaps p = Array.length p.heaps
  let n_invos p = Array.length p.invos
  let entries p = p.entries

  let iter_types p f = Array.iteri (fun i info -> f (Type_id.of_int i) info) p.types
  let iter_meths p f = Array.iteri (fun i info -> f (Meth_id.of_int i) info) p.meths
  let iter_vars p f = Array.iteri (fun i info -> f (Var_id.of_int i) info) p.vars
  let iter_heaps p f = Array.iteri (fun i info -> f (Heap_id.of_int i) info) p.heaps
  let iter_invos p f = Array.iteri (fun i info -> f (Invo_id.of_int i) info) p.invos

  let find_type p name = Hashtbl.find_opt p.type_by_name name

  let find_meth p class_name meth_name arity =
    match find_type p class_name with
    | None -> None
    | Some ty ->
      let info = type_info p ty in
      List.find_map
        (fun (_, m) ->
          let mi = meth_info p m in
          if String.equal mi.meth_name meth_name
             && Array.length mi.formals = arity
          then Some m
          else None)
        info.declared

  let type_name p id = (type_info p id).type_name

  let meth_qualified_name p id =
    let mi = meth_info p id in
    Printf.sprintf "%s.%s/%d" (type_name p mi.meth_owner) mi.meth_name
      (Array.length mi.formals)

  let var_qualified_name p id =
    let vi = var_info p id in
    Printf.sprintf "%s:%s" (meth_qualified_name p vi.var_owner) vi.var_name

  let heap_name p id =
    let hi = heap_info p id in
    Printf.sprintf "%s[new %s@%s]"
      (meth_qualified_name p hi.heap_owner)
      (type_name p hi.heap_type) hi.heap_label

  let invo_name p id =
    let ii = invo_info p id in
    Printf.sprintf "%s[call@%s]" (meth_qualified_name p ii.invo_owner) ii.invo_label

  let meth_span p id = p.meth_spans.(Meth_id.to_int id)
  let heap_span p id = p.heap_spans.(Heap_id.to_int id)
  let invo_span p id = p.invo_spans.(Invo_id.to_int id)
  let instr_spans p id = p.instr_span_tab.(Meth_id.to_int id)
end

module Builder = struct
  (* (name, arity) -> signature, with monomorphic equality. *)
  module Sig_tbl = Hashtbl.Make (struct
    type t = string * int

    let equal (a, i) (b, j) = i = j && String.equal a b
    let hash = Hashtbl.hash
  end)

  type pending_meth = {
    pm_name : string;
    pm_sig : Sig_id.t;
    pm_owner : Type_id.t;
    pm_static : bool;
    pm_this : Var_id.t option;
    mutable pm_formals : Var_id.t array;
    mutable pm_ret : Var_id.t option;
    mutable pm_body : code;
    pm_span : Srcloc.span option;
    mutable pm_instr_spans : Srcloc.span array;
  }

  type pending_type = {
    pt_name : string;
    pt_kind : type_kind;
    pt_super : Type_id.t option;
    pt_ifaces : Type_id.t list;
    mutable pt_declared : (Sig_id.t * Meth_id.t) list;
  }

  type t = {
    types : pending_type Vec.t;
    fields : field_info Vec.t;
    sigs : sig_info Vec.t;
    meths : pending_meth Vec.t;
    vars : var_info Vec.t;
    heaps : heap_info Vec.t;
    invos : invo_info Vec.t;
    mutable entry_list : Meth_id.t list;
    sig_table : Sig_id.t Sig_tbl.t;
    name_table : (string, Type_id.t) Hashtbl.t;
    heap_spans : Srcloc.span option Vec.t;
    invo_spans : Srcloc.span option Vec.t;
  }

  let create () =
    {
      types = Vec.create ();
      fields = Vec.create ();
      sigs = Vec.create ();
      meths = Vec.create ();
      vars = Vec.create ();
      heaps = Vec.create ();
      invos = Vec.create ();
      entry_list = [];
      sig_table = Sig_tbl.create 64;
      name_table = Hashtbl.create 64;
      heap_spans = Vec.create ();
      invo_spans = Vec.create ();
    }

  let add_type b ~name ~kind ~superclass ~interfaces =
    if Hashtbl.mem b.name_table name then
      invalid_arg (Printf.sprintf "Builder.add_type: duplicate type %s" name);
    let id =
      Type_id.of_int
        (Vec.push b.types
           {
             pt_name = name;
             pt_kind = kind;
             pt_super = superclass;
             pt_ifaces = interfaces;
             pt_declared = [];
           })
    in
    Hashtbl.add b.name_table name id;
    id

  let add_field b ~owner ~name ~static =
    Field_id.of_int
      (Vec.push b.fields
         { field_name = name; field_owner = owner; field_static = static })

  let intern_sig b ~name ~arity =
    match Sig_tbl.find_opt b.sig_table (name, arity) with
    | Some s -> s
    | None ->
      let s = Sig_id.of_int (Vec.push b.sigs { sig_name = name; sig_arity = arity }) in
      Sig_tbl.add b.sig_table (name, arity) s;
      s

  let add_var b ~owner ~name =
    Var_id.of_int (Vec.push b.vars { var_name = name; var_owner = owner })

  let add_meth ?span b ~owner ~name ~arity ~static =
    let s = intern_sig b ~name ~arity in
    let id = Meth_id.of_int (Vec.length b.meths) in
    let this = if static then None else Some (add_var b ~owner:id ~name:"this") in
    let (_ : int) =
      Vec.push b.meths
        {
          pm_name = name;
          pm_sig = s;
          pm_owner = owner;
          pm_static = static;
          pm_this = this;
          pm_formals = [||];
          pm_ret = None;
          pm_body = Seq [];
          pm_span = span;
          pm_instr_spans = [||];
        }
    in
    let ti = Vec.get b.types (Type_id.to_int owner) in
    if List.mem_assoc s ti.pt_declared then
      invalid_arg
        (Printf.sprintf "Builder.add_meth: duplicate method %s/%d in %s" name arity
           ti.pt_name);
    ti.pt_declared <- (s, id) :: ti.pt_declared;
    id

  let pending b m = Vec.get b.meths (Meth_id.to_int m)
  let set_formals b m vars = (pending b m).pm_formals <- Array.of_list vars

  let ensure_ret_var b m =
    let pm = pending b m in
    match pm.pm_ret with
    | Some v -> v
    | None ->
      let v = add_var b ~owner:m ~name:"$ret" in
      pm.pm_ret <- Some v;
      v

  let add_heap ?span b ~owner ~label ~ty =
    let (_ : int) = Vec.push b.heap_spans span in
    Heap_id.of_int
      (Vec.push b.heaps { heap_label = label; heap_type = ty; heap_owner = owner })

  let add_invo ?span b ~owner ~label =
    let (_ : int) = Vec.push b.invo_spans span in
    Invo_id.of_int (Vec.push b.invos { invo_label = label; invo_owner = owner })

  let set_body b m code = (pending b m).pm_body <- code

  let set_instr_spans b m spans =
    let pm = pending b m in
    let n = fold_instrs (fun acc _ -> acc + 1) 0 pm.pm_body in
    if Array.length spans <> n then
      invalid_arg
        (Printf.sprintf
           "Builder.set_instr_spans: %d spans for %d instructions in %s"
           (Array.length spans) n pm.pm_name);
    pm.pm_instr_spans <- spans
  let add_entry b m = b.entry_list <- m :: b.entry_list
  let this_var b m = (pending b m).pm_this
  let ret_var b m = (pending b m).pm_ret
  let meth_sig b m = (pending b m).pm_sig

  let validate_body b m (body : code) =
    let var_ok v = Meth_id.equal (Vec.get b.vars (Var_id.to_int v)).var_owner m in
    let rec check_handlers = function
      | Instr _ -> ()
      | Seq cs -> List.iter check_handlers cs
      | Branch (a, bb) ->
        check_handlers a;
        check_handlers bb
      | Loop c -> check_handlers c
      | Try (c, handlers) ->
        check_handlers c;
        List.iter
          (fun h ->
            if not (var_ok h.catch_var) then
              invalid_arg "Builder.freeze: foreign catch variable";
            check_handlers h.handler_body)
          handlers
    in
    check_handlers body;
    let check v =
      if not (var_ok v) then
        invalid_arg
          (Printf.sprintf "Builder.freeze: method %s uses foreign variable %s"
             (pending b m).pm_name
             (Vec.get b.vars (Var_id.to_int v)).var_name)
    in
    iter_instrs
      (fun instr ->
        match instr with
        | Alloc { target; _ } -> check target
        | Move { target; source } ->
          check target;
          check source
        | Load { target; base; _ } ->
          check target;
          check base
        | Store { base; source; _ } ->
          check base;
          check source
        | Cast { target; source; _ } ->
          check target;
          check source
        | Virtual_call { base; args; ret_target; _ } ->
          check base;
          List.iter check args;
          Option.iter check ret_target
        | Static_call { args; ret_target; _ } ->
          List.iter check args;
          Option.iter check ret_target
        | Static_load { target; _ } -> check target
        | Static_store { source; _ } -> check source
        | Throw { source } -> check source)
      body

  let freeze b =
    if Vec.is_empty b.types then invalid_arg "Builder.freeze: no types";
    let types =
      Vec.map_to_array
        (fun pt ->
          {
            type_name = pt.pt_name;
            type_kind = pt.pt_kind;
            superclass = pt.pt_super;
            interfaces = pt.pt_ifaces;
            declared = List.rev pt.pt_declared;
          })
        b.types
    in
    let meths =
      Vec.map_to_array
        (fun pm ->
          {
            meth_name = pm.pm_name;
            meth_sig = pm.pm_sig;
            meth_owner = pm.pm_owner;
            meth_static = pm.pm_static;
            this_var = pm.pm_this;
            formals = pm.pm_formals;
            ret_var = pm.pm_ret;
            body = pm.pm_body;
          })
        b.meths
    in
    Array.iteri (fun i mi -> validate_body b (Meth_id.of_int i) mi.body) meths;
    (* Built afresh, in id order as [add_type] built [name_table], rather
       than copied: [Hashtbl.copy] maps the bucket array with a young
       first bucket, which forces a minor collection once the array
       outgrows the minor heap's largest block. *)
    let type_by_name = Hashtbl.create 64 in
    Array.iteri
      (fun i ti -> Hashtbl.add type_by_name ti.type_name (Type_id.of_int i))
      types;
    {
      Program.types;
      fields = Vec.to_array b.fields;
      sigs = Vec.to_array b.sigs;
      meths;
      vars = Vec.to_array b.vars;
      heaps = Vec.to_array b.heaps;
      invos = Vec.to_array b.invos;
      entries = List.rev b.entry_list;
      type_by_name;
      meth_spans = Vec.map_to_array (fun pm -> pm.pm_span) b.meths;
      heap_spans = Vec.to_array b.heap_spans;
      invo_spans = Vec.to_array b.invo_spans;
      instr_span_tab = Vec.map_to_array (fun pm -> pm.pm_instr_spans) b.meths;
    }
end
