open Pta_ir.Ir
module Vec = Pta_ir.Vec

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

(* One environment serves the whole program; the fields from [meth] on
   describe the method being lowered and are reset for each. *)
type env = {
  b : Builder.t;
  classes : Ast.class_decl Name_tbl.t;
  type_ids : Type_id.t Name_tbl.t;
  field_ids : Field_id.t Name_tbl.t;
  sfield_ids : Field_id.t Name2_tbl.t;
      (* (declaring class, name) -> static field *)
  meth_ids : Meth_id.t Meth_tbl.t;
      (* (class, method, arity) -> concrete method *)
  code : code Vec.t;  (* the items of the blocks being lowered *)
  spans : Srcloc.span Vec.t;
      (* the method's instruction spans so far, in [fold_instrs] order *)
  temp_names : string Vec.t;  (* ["$t<i>"] at index [i], built once *)
  mutable meth : Meth_id.t;
  locals : Var_id.t Name_tbl.t;
  mutable n_temp : int;
  mutable n_heap : int;
  mutable n_invo : int;
  mutable null_var : Var_id.t option;
}

let type_id env pos name =
  match Name_tbl.find env.type_ids name with
  | t -> t
  | exception Not_found -> Srcloc.error pos "unknown type %s" name

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
  let seen = Arity_tbl.create 8 in
  List.iter
    (fun cls_name ->
      let c = Name_tbl.find env.classes cls_name in
      let owner = Name_tbl.find env.type_ids cls_name in
      Arity_tbl.reset seen;
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
    match Meth_tbl.find env.meth_ids (name, meth_name, arity) with
    | m -> Some m
    | exception Not_found ->
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

let rec declares_init arity = function
  | [] -> false
  | (m : Ast.meth_decl) :: ms ->
    (String.equal m.m_name "init"
    && List.compare_length_with m.m_params arity = 0
    && not m.m_static)
    || declares_init arity ms

let rec has_init env name arity =
  let c = Name_tbl.find env.classes name in
  declares_init arity c.Ast.c_meths
  ||
  match c.Ast.c_super with
  | Some s -> has_init env s arity
  | None ->
    (not (String.equal name object_name)) && has_init env object_name arity

(* [new C(...)] requires a concrete class and, when constructor arguments
   are given, a reachable [init] definition. *)
let check_instantiable env pos cls_name (args : Ast.expr list option) =
  let c = find_class env.classes pos cls_name in
  if c.Ast.c_kind = Ast.K_interface then
    Srcloc.error pos "cannot instantiate interface %s" cls_name;
  match args with
  | None -> ()
  | Some args ->
    let arity = List.length args in
    if not (has_init env cls_name arity) then
      Srcloc.error pos "class %s has no constructor init/%d" cls_name arity

(* ------------------------------------------------------------------ *)
(* Pass 4: method bodies                                               *)
(* ------------------------------------------------------------------ *)

let rec collect v mark i acc =
  if i < mark then acc else collect v mark (i - 1) (Vec.get v i :: acc)

(* The items of [v] from [mark] on, oldest first, popped: a block's
   items sit above the mark taken when it began. *)
let pop_list v mark =
  let items = collect v mark (Vec.length v - 1) [] in
  Vec.truncate v mark;
  items

let reverse v lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let x = Vec.get v !lo in
    Vec.set v !lo (Vec.get v !hi);
    Vec.set v !hi x;
    incr lo;
    decr hi
  done

(* Swaps the [n] items above [mark] with the ones above them. *)
let rotate v mark n =
  let top = Vec.length v in
  reverse v mark (top - 1);
  reverse v mark (top - n - 1);
  reverse v (top - n) (top - 1)

let temp_name env n =
  if n < Vec.length env.temp_names then Vec.get env.temp_names n
  else begin
    let name = "$t" ^ string_of_int n in
    ignore (Vec.push env.temp_names name : int);
    name
  end

let fresh_temp env =
  let name = temp_name env env.n_temp in
  env.n_temp <- env.n_temp + 1;
  Builder.add_var env.b ~owner:env.meth ~name

let rec n_digits n = if n < 10 then 1 else 1 + n_digits (n / 10)

(* Writes the [len] decimal digits of [n] at [off]. *)
let rec put_digits b off len n =
  if len > 0 then begin
    Bytes.unsafe_set b (off + len - 1) (Char.unsafe_chr (48 + (n mod 10)));
    put_digits b off (len - 1) (n / 10)
  end

(* [String.make 1 kind ^ string_of_int n ^ "@" ^ string_of_int line ^ ":"
   ^ string_of_int col], in one allocation. *)
let site_label kind n (pos : Srcloc.pos) =
  let dn = n_digits n and dl = n_digits pos.line and dc = n_digits pos.col in
  let b = Bytes.create (dn + dl + dc + 3) in
  Bytes.unsafe_set b 0 kind;
  put_digits b 1 dn n;
  Bytes.unsafe_set b (dn + 1) '@';
  put_digits b (dn + 2) dl pos.line;
  Bytes.unsafe_set b (dn + dl + 2) ':';
  put_digits b (dn + dl + 3) dc pos.col;
  Bytes.unsafe_to_string b

let fresh_heap env pos ~span ~ty =
  let label = site_label 'h' env.n_heap pos in
  env.n_heap <- env.n_heap + 1;
  Builder.add_heap ~span env.b ~owner:env.meth ~label ~ty

let fresh_invo env pos ~span =
  let label = site_label 'i' env.n_invo pos in
  env.n_invo <- env.n_invo + 1;
  Builder.add_invo ~span env.b ~owner:env.meth ~label

let null_var env =
  match env.null_var with
  | Some v -> v
  | None ->
    let v = Builder.add_var env.b ~owner:env.meth ~name:"$null" in
    env.null_var <- Some v;
    v

let this_var env pos =
  match Builder.this_var env.b env.meth with
  | Some v -> v
  | None -> Srcloc.error pos "'this' used in a static method"

let lookup_var env pos name =
  match Name_tbl.find env.locals name with
  | v -> v
  | exception Not_found -> Srcloc.error pos "unbound variable %s" name

let declare_var env pos name =
  if Name_tbl.mem env.locals name then
    Srcloc.error pos "duplicate variable %s" name;
  let v = Builder.add_var env.b ~owner:env.meth ~name in
  Name_tbl.add env.locals name v;
  v

let field_id env pos name =
  match Name_tbl.find env.field_ids name with
  | f -> f
  | exception Not_found -> Srcloc.error pos "unknown field %s" name

(* Instructions go onto [code], and their spans onto [spans], in the
   order [fold_instrs] visits them; a [Branch], [Loop] or [Try] goes
   onto [code] once its blocks are lowered. *)
let emit_code env code = ignore (Vec.push env.code code : int)

let emit env instr span =
  emit_code env (Instr instr);
  ignore (Vec.push env.spans span : int)

(* [lower_value] emits the expression's instructions and returns the
   variable holding its value; [lower_into] emits them so that they
   leave the value in [target].  Each instruction carries the span of
   the expression it implements. *)
let rec lower_value env (expr : Ast.expr) =
  match expr.e with
  | Ast.E_var name -> lookup_var env expr.e_pos name
  | Ast.E_this -> this_var env expr.e_pos
  | Ast.E_null -> null_var env
  | Ast.E_new _ | Ast.E_load _ | Ast.E_vcall _ | Ast.E_scall _ | Ast.E_cast _
  | Ast.E_sfield _ ->
    let t = fresh_temp env in
    lower_into env ~target:t expr;
    t

and lower_into env ~target (expr : Ast.expr) =
  let pos = expr.e_pos in
  let sp = expr.e_span in
  match expr.e with
  | Ast.E_var name ->
    emit env (Move { target; source = lookup_var env pos name }) sp
  | Ast.E_this -> emit env (Move { target; source = this_var env pos }) sp
  | Ast.E_null -> ()
  | Ast.E_new (cls_name, args) ->
    check_instantiable env pos cls_name args;
    let ty = type_id env pos cls_name in
    let heap = fresh_heap env pos ~span:sp ~ty in
    emit env (Alloc { target; heap }) sp;
    (match args with
    | None -> ()
    | Some args ->
      let arg_vars = lower_args env args in
      let invo = fresh_invo env pos ~span:sp in
      let signature =
        Builder.intern_sig env.b ~name:"init" ~arity:(List.length args)
      in
      emit env
        (Virtual_call
           { base = target; signature; invo; args = arg_vars; ret_target = None })
        sp)
  | Ast.E_load (base, field_name) ->
    let base_var = lower_value env base in
    let field = field_id env pos field_name in
    emit env (Load { target; base = base_var; field }) sp
  | Ast.E_vcall (base, meth_name, args) ->
    lower_call env pos ~span:sp ~ret_target:(Some target) base meth_name args
  | Ast.E_scall (cls_name, meth_name, args) ->
    lower_static_call env pos ~span:sp ~ret_target:(Some target) cls_name
      meth_name args
  | Ast.E_sfield (cls_name, field_name) ->
    let field = resolve_sfield env pos cls_name field_name in
    emit env (Static_load { target; field }) sp
  | Ast.E_cast (cls_name, operand) ->
    let cast_type = type_id env pos cls_name in
    let source = lower_value env operand in
    emit env (Cast { target; source; cast_type }) sp

and lower_args env = function
  | [] -> []
  | arg :: args ->
    let v = lower_value env arg in
    v :: lower_args env args

and lower_call env pos ~span ~ret_target base meth_name args =
  let base_var = lower_value env base in
  let arg_vars = lower_args env args in
  let invo = fresh_invo env pos ~span in
  let signature =
    Builder.intern_sig env.b ~name:meth_name ~arity:(List.length args)
  in
  emit env
    (Virtual_call
       { base = base_var; signature; invo; args = arg_vars; ret_target })
    span

and lower_static_call env pos ~span ~ret_target cls_name meth_name args =
  let callee =
    resolve_static env pos cls_name meth_name (List.length args)
  in
  let arg_vars = lower_args env args in
  let invo = fresh_invo env pos ~span in
  emit env (Static_call { callee; invo; args = arg_vars; ret_target }) span

let rec lower_stmt env (stmt : Ast.stmt) =
  let pos = stmt.s_pos in
  match stmt.s with
  | Ast.S_decl (name, init) ->
    let v = declare_var env pos name in
    (match init with
    | None -> ()
    | Some expr -> lower_into env ~target:v expr)
  | Ast.S_assign (name, expr) ->
    let target =
      match Name_tbl.find env.locals name with
      | v -> v
      | exception Not_found -> declare_var env pos name  (* implicit declaration *)
    in
    lower_into env ~target expr
  | Ast.S_sstore (cls_name, field_name, rhs) ->
    let field = resolve_sfield env pos cls_name field_name in
    let source = lower_value env rhs in
    emit env (Static_store { field; source }) stmt.s_span
  | Ast.S_store (base, field_name, rhs) ->
    let base_var = lower_value env base in
    let source = lower_value env rhs in
    let field = field_id env pos field_name in
    emit env (Store { base = base_var; field; source }) stmt.s_span
  | Ast.S_expr expr -> (
    match expr.e with
    | Ast.E_vcall (base, meth_name, args) ->
      lower_call env pos ~span:expr.e_span ~ret_target:None base meth_name args
    | Ast.E_scall (cls_name, meth_name, args) ->
      lower_static_call env pos ~span:expr.e_span ~ret_target:None cls_name
        meth_name args
    | Ast.E_new (_, Some _) ->
      let t = fresh_temp env in
      lower_into env ~target:t expr
    | _ -> Srcloc.error pos "expression statement must be a call")
  | Ast.S_return None -> ()
  | Ast.S_return (Some expr) ->
    let target = Builder.ensure_ret_var env.b env.meth in
    lower_into env ~target expr
  | Ast.S_if (then_branch, else_branch) ->
    (* The else branch takes its ids first, as it always has; its spans
       then move behind the then branch's, into [fold_instrs] order. *)
    let mark = Vec.length env.spans in
    let else_code = lower_block env else_branch in
    let n_else = Vec.length env.spans - mark in
    let then_code = lower_block env then_branch in
    rotate env.spans mark n_else;
    emit_code env (Branch (then_code, else_code))
  | Ast.S_while body -> emit_code env (Loop (lower_block env body))
  | Ast.S_throw expr ->
    let source = lower_value env expr in
    emit env (Throw { source }) stmt.s_span
  | Ast.S_try (body, catches) ->
    let body = lower_block env body in
    let handlers = lower_handlers env pos catches in
    emit_code env (Try (body, handlers))

and lower_handlers env pos = function
  | [] -> []
  | (c : Ast.catch_clause) :: catches ->
    let catch_type = type_id env pos c.cc_type in
    let catch_var = declare_var env pos c.cc_var in
    let handler_body = lower_block env c.cc_body in
    let handler = { catch_type; catch_var; handler_body } in
    handler :: lower_handlers env pos catches

and lower_stmts env = function
  | [] -> ()
  | stmt :: stmts ->
    lower_stmt env stmt;
    lower_stmts env stmts

and lower_block env stmts =
  let mark = Vec.length env.code in
  lower_stmts env stmts;
  Seq (pop_list env.code mark)

let rec declare_formals env (m : Ast.meth_decl) = function
  | [] -> []
  | param :: params ->
    if Name_tbl.mem env.locals param then
      Srcloc.error m.m_pos "duplicate parameter %s" param;
    let v = Builder.add_var env.b ~owner:env.meth ~name:param in
    Name_tbl.add env.locals param v;
    v :: declare_formals env m params

let lower_body env cls_name (m : Ast.meth_decl) =
  let arity = List.length m.m_params in
  env.meth <- Meth_tbl.find env.meth_ids (cls_name, m.m_name, arity);
  Name_tbl.reset env.locals;
  env.n_temp <- 0;
  env.n_heap <- 0;
  env.n_invo <- 0;
  env.null_var <- None;
  Builder.set_formals env.b env.meth (declare_formals env m m.m_params);
  let body = lower_block env m.m_body in
  let spans = Vec.to_array env.spans in
  Vec.truncate env.spans 0;
  Builder.set_body env.b env.meth body;
  Builder.set_instr_spans env.b env.meth spans

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
      code = Vec.create ();
      spans = Vec.create ();
      temp_names = Vec.create ();
      meth = Meth_id.of_int 0;
      locals = Name_tbl.create 16;
      n_temp = 0;
      n_heap = 0;
      n_invo = 0;
      null_var = None;
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
