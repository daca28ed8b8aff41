open Ir

type t = {
  program : Program.t;
  supers : Type_id.Set.t option array;  (* memo: reflexive-transitive supertypes *)
  dispatch : Inttbl.t;  (* (type, signature) -> target method, or -1 *)
  mutable subclasses : Type_id.t list Type_id.Map.t option;
}

let create program =
  {
    program;
    supers = Array.make (Program.n_types program) None;
    dispatch = Inttbl.create_map ();
    subclasses = None;
  }

let rec supertypes h ty =
  let idx = Type_id.to_int ty in
  match h.supers.(idx) with
  | Some s -> s
  | None ->
    let info = Program.type_info h.program ty in
    let from_ifaces =
      List.fold_left
        (fun acc i -> Type_id.Set.union acc (supertypes h i))
        Type_id.Set.empty info.interfaces
    in
    let from_super =
      match info.superclass with
      | None -> Type_id.Set.empty
      | Some s -> supertypes h s
    in
    let s = Type_id.Set.add ty (Type_id.Set.union from_ifaces from_super) in
    h.supers.(idx) <- Some s;
    s

let subtype h ~sub ~sup = Type_id.Set.mem sup (supertypes h sub)

let lookup h ty signature =
  let key = Inttbl.pack (Type_id.to_int ty) (Sig_id.to_int signature) in
  let cached = Inttbl.find h.dispatch key in
  if cached >= 0 then Some (Meth_id.of_int cached)
  else if cached = -1 then None
  else begin
    let rec walk ty =
      let info = Program.type_info h.program ty in
      match List.assoc_opt signature info.declared with
      | Some m -> Some m
      | None -> Option.bind info.superclass walk
    in
    let r = walk ty in
    Inttbl.add h.dispatch key
      (match r with Some m -> Meth_id.to_int m | None -> -1);
    r
  end

let direct_subclasses h ty =
  let map =
    match h.subclasses with
    | Some m -> m
    | None ->
      let m = ref Type_id.Map.empty in
      Program.iter_types h.program (fun id info ->
          match info.superclass with
          | None -> ()
          | Some s ->
            let existing = Option.value ~default:[] (Type_id.Map.find_opt s !m) in
            m := Type_id.Map.add s (id :: existing) !m);
      h.subclasses <- Some !m;
      !m
  in
  Option.value ~default:[] (Type_id.Map.find_opt ty map)
