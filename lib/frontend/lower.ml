open Pta_ir.Ir

(* Tables keyed by names.  They hash with [Hashtbl.hash], as the generic
   table does, so buckets, iteration order ([topo_order]) and every id
   stay what they were; equality is monomorphic, never [compare_val]. *)
module Name_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Name2_tbl = Hashtbl.Make (struct
  type t = string * string

  let equal (a, b) (c, d) = String.equal a c && String.equal b d
  let hash = Hashtbl.hash
end)

module Arity_tbl = Hashtbl.Make (struct
  type t = string * int

  let equal (a, i) (b, j) = i = j && String.equal a b
  let hash = Hashtbl.hash
end)

module Meth_tbl = Hashtbl.Make (struct
  type t = string * string * int

  let equal (a, b, i) (c, d, j) = i = j && String.equal a c && String.equal b d
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Pass 1: class table and topological ordering                        *)
(* ------------------------------------------------------------------ *)

let object_name = "Object"

let class_table (decls : Ast.program) =
  let table : Ast.class_decl Name_tbl.t = Name_tbl.create 64 in
  List.iter
    (fun (c : Ast.class_decl) ->
      if Name_tbl.mem table c.c_name then
        Srcloc.error c.c_pos "duplicate type %s" c.c_name;
      Name_tbl.add table c.c_name c)
    decls;
  if not (Name_tbl.mem table object_name) then
    Name_tbl.add table object_name
      {
        Ast.c_name = object_name;
        c_kind = Ast.K_class;
        c_super = None;
        c_ifaces = [];
        c_fields = [];
        c_meths = [];
        c_pos = Srcloc.dummy;
      };
  table

let find_class table pos name =
  match Name_tbl.find_opt table name with
  | Some c -> c
  | None -> Srcloc.error pos "unknown type %s" name

(* Parents of a type in declaration order: the superclass (implicit
   [Object] for root-less classes) followed by the interfaces. *)
let parents table (c : Ast.class_decl) =
  let super =
    match c.c_kind with
    | Ast.K_interface -> []
    | Ast.K_class ->
      if String.equal c.c_name object_name then []
      else begin
        let name = Option.value ~default:object_name c.c_super in
        if (find_class table c.c_pos name).Ast.c_kind <> Ast.K_class then
          Srcloc.error c.c_pos "class %s cannot extend interface %s" c.c_name name;
        [ name ]
      end
  in
  List.iter
    (fun name ->
      if (find_class table c.c_pos name).Ast.c_kind <> Ast.K_interface then
        Srcloc.error c.c_pos "%s is not an interface (in %s's %s clause)" name
          c.c_name
          (match c.c_kind with Ast.K_class -> "implements" | _ -> "extends"))
    c.c_ifaces;
  super @ c.c_ifaces

(* Depth-first topological sort over the supertype edges, detecting
   inheritance cycles. *)
let topo_order table =
  let visiting = Name_tbl.create 16 in
  let done_ = Name_tbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if not (Name_tbl.mem done_ name) then begin
      if Name_tbl.mem visiting name then
        Srcloc.error (Name_tbl.find table name).Ast.c_pos
          "inheritance cycle through %s" name;
      Name_tbl.add visiting name ();
      let c = Name_tbl.find table name in
      List.iter visit (parents table c);
      Name_tbl.remove visiting name;
      Name_tbl.add done_ name ();
      order := name :: !order
    end
  in
  Name_tbl.iter (fun name _ -> visit name) table;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Pass 2+3: declare types, fields and method shells                   *)
(* ------------------------------------------------------------------ *)

type env = {
  b : Builder.t;
  classes : Ast.class_decl Name_tbl.t;
  type_ids : Type_id.t Name_tbl.t;
  field_ids : Field_id.t Name_tbl.t;
  sfield_ids : Field_id.t Name2_tbl.t;
      (* (declaring class, name) -> static field *)
  meth_ids : Meth_id.t Meth_tbl.t;
      (* (class, method, arity) -> concrete method *)
}

let type_id env pos name =
  match Name_tbl.find_opt env.type_ids name with
  | Some t -> t
  | None -> Srcloc.error pos "unknown type %s" name

let declare_types env order =
  List.iter
    (fun name ->
      let c = Name_tbl.find env.classes name in
      let kind =
        match c.Ast.c_kind with Ast.K_class -> Class | Ast.K_interface -> Interface
      in
      let superclass =
        match c.Ast.c_kind with
        | Ast.K_interface -> None
        | Ast.K_class ->
          if String.equal name object_name then None
          else
            Some
              (type_id env c.Ast.c_pos
                 (Option.value ~default:object_name c.Ast.c_super))
      in
      let interfaces =
        List.map (type_id env c.Ast.c_pos) c.Ast.c_ifaces
      in
      let id = Builder.add_type env.b ~name ~kind ~superclass ~interfaces in
      Name_tbl.add env.type_ids name id)
    order

let declare_fields env order =
  List.iter
    (fun name ->
      let c = Name_tbl.find env.classes name in
      let owner = Name_tbl.find env.type_ids name in
      List.iter
        (fun (f : Ast.field_decl) ->
          if f.f_static then begin
            (* Static fields are per-class global cells, accessed as
               [C::f] and resolved along the superclass chain. *)
            if Name2_tbl.mem env.sfield_ids (name, f.f_name) then
              Srcloc.error f.f_pos "duplicate static field %s in %s" f.f_name name;
            Name2_tbl.add env.sfield_ids (name, f.f_name)
              (Builder.add_field env.b ~owner ~name:f.f_name ~static:true)
          end
          else if not (Name_tbl.mem env.field_ids f.f_name) then
            (* Instance fields are a global namespace (MJ is untyped at
               use sites); the first declaration owns the id. *)
            Name_tbl.add env.field_ids f.f_name
              (Builder.add_field env.b ~owner ~name:f.f_name ~static:false))
        c.c_fields)
    order

(* Resolve [C::f] along the superclass chain, like inherited statics. *)
let resolve_sfield env pos cls_name field_name =
  if not (Name_tbl.mem env.type_ids cls_name) then
    Srcloc.error pos "unknown type %s in static field access" cls_name;
  let rec walk name =
    match Name2_tbl.find_opt env.sfield_ids (name, field_name) with
    | Some f -> Some f
    | None ->
      let c = Name_tbl.find env.classes name in
      (match c.Ast.c_kind with
      | Ast.K_interface -> None
      | Ast.K_class ->
        if String.equal name object_name then None
        else walk (Option.value ~default:object_name c.Ast.c_super))
  in
  match walk cls_name with
  | Some f -> f
  | None -> Srcloc.error pos "no static field %s::%s" cls_name field_name

let declare_meths env order =
  List.iter
    (fun cls_name ->
      let c = Name_tbl.find env.classes cls_name in
      let owner = Name_tbl.find env.type_ids cls_name in
      let seen = Arity_tbl.create 8 in
      List.iter
        (fun (m : Ast.meth_decl) ->
          let arity = List.length m.m_params in
          if Arity_tbl.mem seen (m.m_name, arity) then
            Srcloc.error m.m_pos "duplicate method %s/%d in %s" m.m_name arity
              cls_name;
          Arity_tbl.add seen (m.m_name, arity) ();
          if not m.m_abstract then begin
            let id =
              Builder.add_meth ~span:m.m_span env.b ~owner ~name:m.m_name ~arity
                ~static:m.m_static
            in
            Meth_tbl.add env.meth_ids (cls_name, m.m_name, arity) id
          end)
        c.c_meths)
    order

(* Resolve [C::m/arity] by walking the superclass chain, Java-style
   inherited statics included. *)
let resolve_static env pos cls_name meth_name arity =
  let rec walk name =
    match Meth_tbl.find_opt env.meth_ids (name, meth_name, arity) with
    | Some m -> Some m
    | None ->
      let c = Name_tbl.find env.classes name in
      (match c.Ast.c_kind with
      | Ast.K_interface -> None
      | Ast.K_class ->
        if String.equal name object_name then None
        else walk (Option.value ~default:object_name c.Ast.c_super))
  in
  if not (Name_tbl.mem env.type_ids cls_name) then
    Srcloc.error pos "unknown type %s in static call" cls_name;
  match walk cls_name with
  | Some m -> m
  | None ->
    Srcloc.error pos "no static method %s::%s/%d" cls_name meth_name arity

(* [new C(...)] requires a concrete class and, when constructor arguments
   are given, a reachable [init] definition. *)
let check_instantiable env pos cls_name ~ctor_arity =
  let c = find_class env.classes pos cls_name in
  if c.Ast.c_kind = Ast.K_interface then
    Srcloc.error pos "cannot instantiate interface %s" cls_name;
  match ctor_arity with
  | None -> ()
  | Some arity ->
    let rec has_init name =
      let c = Name_tbl.find env.classes name in
      List.exists
        (fun (m : Ast.meth_decl) ->
          String.equal m.m_name "init"
          && List.length m.m_params = arity
          && not m.m_static)
        c.Ast.c_meths
      ||
      match c.Ast.c_super with
      | Some s -> has_init s
      | None ->
        (not (String.equal name object_name)) && has_init object_name
    in
    if not (has_init cls_name) then
      Srcloc.error pos "class %s has no constructor init/%d" cls_name arity

(* ------------------------------------------------------------------ *)
(* Pass 4: method bodies                                               *)
(* ------------------------------------------------------------------ *)

type menv = {
  e : env;
  meth : Meth_id.t;
  locals : Var_id.t Name_tbl.t;
  mutable n_temp : int;
  mutable n_heap : int;
  mutable n_invo : int;
  mutable null_var : Var_id.t option;
}

let fresh_temp me =
  let name = "$t" ^ string_of_int me.n_temp in
  me.n_temp <- me.n_temp + 1;
  Builder.add_var me.e.b ~owner:me.meth ~name

let fresh_heap me pos ~span ~ty =
  let label =
    "h" ^ string_of_int me.n_heap ^ "@" ^ string_of_int pos.Srcloc.line ^ ":"
    ^ string_of_int pos.Srcloc.col
  in
  me.n_heap <- me.n_heap + 1;
  Builder.add_heap ~span me.e.b ~owner:me.meth ~label ~ty

let fresh_invo me pos ~span =
  let label =
    "i" ^ string_of_int me.n_invo ^ "@" ^ string_of_int pos.Srcloc.line ^ ":"
    ^ string_of_int pos.Srcloc.col
  in
  me.n_invo <- me.n_invo + 1;
  Builder.add_invo ~span me.e.b ~owner:me.meth ~label

let null_var me =
  match me.null_var with
  | Some v -> v
  | None ->
    let v = Builder.add_var me.e.b ~owner:me.meth ~name:"$null" in
    me.null_var <- Some v;
    v

let this_var me pos =
  match Builder.this_var me.e.b me.meth with
  | Some v -> v
  | None -> Srcloc.error pos "'this' used in a static method"

let lookup_var me pos name =
  match Name_tbl.find_opt me.locals name with
  | Some v -> v
  | None -> Srcloc.error pos "unbound variable %s" name

let declare_var me pos name =
  if Name_tbl.mem me.locals name then
    Srcloc.error pos "duplicate variable %s" name;
  let v = Builder.add_var me.e.b ~owner:me.meth ~name in
  Name_tbl.add me.locals name v;
  v

(* Lowered code annotated with the source span of each instruction.  The
   spans are stripped into a positional side table (in [fold_instrs]
   order) once the whole body is assembled, so they survive interning
   without the IR needing per-instruction identities. *)
type acode =
  | A_instr of instr * Srcloc.span
  | A_seq of acode list
  | A_branch of acode * acode
  | A_loop of acode
  | A_try of acode * ahandler list

and ahandler = {
  a_catch_type : Type_id.t;
  a_catch_var : Var_id.t;
  a_handler_body : acode;
}

(* Explicit recursion (not [List.map]) so the traversal order provably
   matches [fold_instrs] over the stripped tree. *)
let strip_spans (root : acode) : code * Srcloc.span array =
  let spans = ref [] in
  let rec go = function
    | A_instr (i, sp) ->
      spans := sp :: !spans;
      Instr i
    | A_seq cs -> Seq (go_list cs)
    | A_branch (a, b) ->
      let a = go a in
      let b = go b in
      Branch (a, b)
    | A_loop c -> Loop (go c)
    | A_try (body, handlers) ->
      let body = go body in
      Try (body, go_handlers handlers)
  and go_list = function
    | [] -> []
    | c :: rest ->
      let c = go c in
      c :: go_list rest
  and go_handlers = function
    | [] -> []
    | h :: rest ->
      let handler_body = go h.a_handler_body in
      { catch_type = h.a_catch_type; catch_var = h.a_catch_var; handler_body }
      :: go_handlers rest
  in
  let code = go root in
  (code, Array.of_list (List.rev !spans))

(* [lower_value] produces the variable holding the expression's value;
   [lower_into] materializes the expression directly into [target].
   Both return the emitted instructions in order, each carrying the span
   of the expression it implements. *)
let rec lower_value me (expr : Ast.expr) :
    (instr * Srcloc.span) list * Var_id.t =
  match expr.e with
  | Ast.E_var name -> ([], lookup_var me expr.e_pos name)
  | Ast.E_this -> ([], this_var me expr.e_pos)
  | Ast.E_null -> ([], null_var me)
  | Ast.E_new _ | Ast.E_load _ | Ast.E_vcall _ | Ast.E_scall _ | Ast.E_cast _
  | Ast.E_sfield _ ->
    let t = fresh_temp me in
    (lower_into me ~target:t expr, t)

and lower_into me ~target (expr : Ast.expr) : (instr * Srcloc.span) list =
  let pos = expr.e_pos in
  let sp = expr.e_span in
  match expr.e with
  | Ast.E_var name -> [ (Move { target; source = lookup_var me pos name }, sp) ]
  | Ast.E_this -> [ (Move { target; source = this_var me pos }, sp) ]
  | Ast.E_null -> []
  | Ast.E_new (cls_name, args) ->
    let ctor_arity = Option.map List.length args in
    check_instantiable me.e pos cls_name ~ctor_arity;
    let ty = type_id me.e pos cls_name in
    let heap = fresh_heap me pos ~span:sp ~ty in
    let alloc = (Alloc { target; heap }, sp) in
    (match args with
    | None -> [ alloc ]
    | Some args ->
      let arg_instrs, arg_vars = lower_args me args in
      let invo = fresh_invo me pos ~span:sp in
      let signature =
        Builder.intern_sig me.e.b ~name:"init" ~arity:(List.length args)
      in
      (alloc :: arg_instrs)
      @ [
          ( Virtual_call
              { base = target; signature; invo; args = arg_vars;
                ret_target = None },
            sp );
        ])
  | Ast.E_load (base, field_name) ->
    let base_instrs, base_var = lower_value me base in
    let field = field_id me pos field_name in
    base_instrs @ [ (Load { target; base = base_var; field }, sp) ]
  | Ast.E_vcall (base, meth_name, args) ->
    lower_call me pos ~span:sp ~ret_target:(Some target) base meth_name args
  | Ast.E_scall (cls_name, meth_name, args) ->
    lower_static_call me pos ~span:sp ~ret_target:(Some target) cls_name
      meth_name args
  | Ast.E_sfield (cls_name, field_name) ->
    let field = resolve_sfield me.e pos cls_name field_name in
    [ (Static_load { target; field }, sp) ]
  | Ast.E_cast (cls_name, operand) ->
    let cast_type = type_id me.e pos cls_name in
    let instrs, source = lower_value me operand in
    instrs @ [ (Cast { target; source; cast_type }, sp) ]

and field_id me pos name =
  match Name_tbl.find_opt me.e.field_ids name with
  | Some f -> f
  | None -> Srcloc.error pos "unknown field %s" name

and lower_args me args =
  let instrs, vars =
    List.fold_left
      (fun (instrs, vars) arg ->
        let arg_instrs, v = lower_value me arg in
        (instrs @ arg_instrs, v :: vars))
      ([], []) args
  in
  (instrs, List.rev vars)

and lower_call me pos ~span ~ret_target base meth_name args =
  let base_instrs, base_var = lower_value me base in
  let arg_instrs, arg_vars = lower_args me args in
  let invo = fresh_invo me pos ~span in
  let signature =
    Builder.intern_sig me.e.b ~name:meth_name ~arity:(List.length args)
  in
  base_instrs @ arg_instrs
  @ [
      ( Virtual_call
          { base = base_var; signature; invo; args = arg_vars; ret_target },
        span );
    ]

and lower_static_call me pos ~span ~ret_target cls_name meth_name args =
  let callee =
    resolve_static me.e pos cls_name meth_name (List.length args)
  in
  let arg_instrs, arg_vars = lower_args me args in
  let invo = fresh_invo me pos ~span in
  arg_instrs
  @ [ (Static_call { callee; invo; args = arg_vars; ret_target }, span) ]

let instrs_to_acode annotated =
  List.map (fun (i, sp) -> A_instr (i, sp)) annotated

let rec lower_stmt me (stmt : Ast.stmt) : acode list =
  let pos = stmt.s_pos in
  match stmt.s with
  | Ast.S_decl (name, init) ->
    let v = declare_var me pos name in
    (match init with
    | None -> []
    | Some expr -> instrs_to_acode (lower_into me ~target:v expr))
  | Ast.S_assign (name, expr) ->
    let target =
      match Name_tbl.find_opt me.locals name with
      | Some v -> v
      | None -> declare_var me pos name  (* implicit declaration *)
    in
    instrs_to_acode (lower_into me ~target expr)
  | Ast.S_sstore (cls_name, field_name, rhs) ->
    let field = resolve_sfield me.e pos cls_name field_name in
    let rhs_instrs, source = lower_value me rhs in
    instrs_to_acode
      (rhs_instrs @ [ (Static_store { field; source }, stmt.s_span) ])
  | Ast.S_store (base, field_name, rhs) ->
    let base_instrs, base_var = lower_value me base in
    let rhs_instrs, source = lower_value me rhs in
    let field = field_id me pos field_name in
    instrs_to_acode
      (base_instrs @ rhs_instrs
      @ [ (Store { base = base_var; field; source }, stmt.s_span) ])
  | Ast.S_expr expr ->
    let instrs =
      match expr.e with
      | Ast.E_vcall (base, meth_name, args) ->
        lower_call me pos ~span:expr.e_span ~ret_target:None base meth_name
          args
      | Ast.E_scall (cls_name, meth_name, args) ->
        lower_static_call me pos ~span:expr.e_span ~ret_target:None cls_name
          meth_name args
      | Ast.E_new (_, Some _) ->
        let t = fresh_temp me in
        lower_into me ~target:t expr
      | _ -> Srcloc.error pos "expression statement must be a call"
    in
    instrs_to_acode instrs
  | Ast.S_return None -> []
  | Ast.S_return (Some expr) ->
    let target = Builder.ensure_ret_var me.e.b me.meth in
    instrs_to_acode (lower_into me ~target expr)
  | Ast.S_if (then_branch, else_branch) ->
    [ A_branch (lower_block me then_branch, lower_block me else_branch) ]
  | Ast.S_while body -> [ A_loop (lower_block me body) ]
  | Ast.S_throw expr ->
    let instrs, source = lower_value me expr in
    instrs_to_acode instrs @ [ A_instr (Throw { source }, stmt.s_span) ]
  | Ast.S_try (body, catches) ->
    let lowered_body = lower_block me body in
    let handlers =
      List.map
        (fun (c : Ast.catch_clause) ->
          let a_catch_type = type_id me.e pos c.cc_type in
          let a_catch_var = declare_var me pos c.cc_var in
          { a_catch_type; a_catch_var; a_handler_body = lower_block me c.cc_body })
        catches
    in
    [ A_try (lowered_body, handlers) ]

and lower_block me stmts = A_seq (List.concat_map (lower_stmt me) stmts)

let lower_body env cls_name (m : Ast.meth_decl) =
  let arity = List.length m.m_params in
  let meth = Meth_tbl.find env.meth_ids (cls_name, m.m_name, arity) in
  let me =
    {
      e = env;
      meth;
      locals = Name_tbl.create 16;
      n_temp = 0;
      n_heap = 0;
      n_invo = 0;
      null_var = None;
    }
  in
  let formals =
    List.map
      (fun param ->
        if Name_tbl.mem me.locals param then
          Srcloc.error m.m_pos "duplicate parameter %s" param;
        let v = Builder.add_var env.b ~owner:meth ~name:param in
        Name_tbl.add me.locals param v;
        v)
      m.m_params
  in
  Builder.set_formals env.b meth formals;
  let code, spans = strip_spans (lower_block me m.m_body) in
  Builder.set_body env.b meth code;
  Builder.set_instr_spans env.b meth spans

let program (decls : Ast.program) : Program.t =
  let classes = class_table decls in
  let order = topo_order classes in
  let env =
    {
      b = Builder.create ();
      classes;
      type_ids = Name_tbl.create 64;
      field_ids = Name_tbl.create 64;
      sfield_ids = Name2_tbl.create 64;
      meth_ids = Meth_tbl.create 256;
    }
  in
  declare_types env order;
  declare_fields env order;
  declare_meths env order;
  List.iter
    (fun cls_name ->
      let c = Name_tbl.find classes cls_name in
      List.iter
        (fun (m : Ast.meth_decl) ->
          if not m.Ast.m_abstract then lower_body env cls_name m)
        c.Ast.c_meths)
    order;
  (* Entry points: every [static method main()], in class-name order for
     determinism. *)
  let mains =
    Meth_tbl.fold
      (fun (cls, name, arity) meth acc ->
        if
          String.equal name "main" && arity = 0
          && Builder.this_var env.b meth = None
        then (cls, meth) :: acc
        else acc)
      env.meth_ids []
  in
  List.iter
    (fun (_, meth) -> Builder.add_entry env.b meth)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) mains);
  Builder.freeze env.b
