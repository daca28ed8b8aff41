module Ir = Pta_ir.Ir
module Hierarchy = Pta_ir.Hierarchy
open Ir

type arg = This | Param of int

type item =
  | Copy_ret of arg
  | Load_ret of Field_id.t
  | Store_field of Field_id.t * arg

type t = {
  actions : (int, item list) Hashtbl.t;  (* Invo_id -> caller-side flows *)
  summarized : Meth_id.Set.t;
  n_cut_sites : int;
}

(* Where a local's value can come from, within a call/alloc/static-free
   method body: the receiver, a formal, or a field of the receiver. *)
type origin = OThis | OParam of int | OLoad of Field_id.t

let arg_rank = function This -> (0, 0) | Param i -> (1, i)

let item_rank = function
  | Copy_ret a -> (0, arg_rank a, 0)
  | Load_ret f -> (1, (0, 0), Field_id.to_int f)
  | Store_field (f, a) -> (2, arg_rank a, Field_id.to_int f)

let compare_item a b = compare (item_rank a) (item_rank b)

(* Summarize one method: [Some items] iff every caller-visible effect of
   calling it is exactly [items].  The analysis is flow-insensitive, like
   the points-to analysis itself: origins are a fixpoint over the body's
   move/load graph, then every load/store/return is checked against
   them. *)
let summarize (mi : meth_info) =
  let exception Bail in
  try
    (* Only move/load/store/return shapes qualify; anything that can
       allocate, call, touch globals or throw disqualifies the method,
       as does [Try] structure (summaries have no exceptional flow). *)
    let rec scan_code = function
      | Instr i -> scan_instr i
      | Seq cs -> List.iter scan_code cs
      | Branch (a, b) ->
        scan_code a;
        scan_code b
      | Loop c -> scan_code c
      | Try (_, _) -> raise Bail
    and scan_instr = function
      | Move _ | Load _ | Store _ -> ()
      | Alloc _ | Cast _ | Virtual_call _ | Static_call _ | Static_load _
      | Static_store _ | Throw _ ->
        raise Bail
    in
    scan_code mi.body;
    let instrs = instr_list mi.body in
    let origins : (int, origin list) Hashtbl.t = Hashtbl.create 16 in
    let get v = Option.value ~default:[] (Hashtbl.find_opt origins (Var_id.to_int v)) in
    let add v o =
      let cur = get v in
      if not (List.mem o cur) then begin
        Hashtbl.replace origins (Var_id.to_int v) (o :: cur);
        true
      end
      else false
    in
    (match mi.this_var with
    | Some this -> ignore (add this OThis)
    | None -> ());
    Array.iteri (fun i formal -> ignore (add formal (OParam i))) mi.formals;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun instr ->
          match instr with
          | Move { target; source } ->
            List.iter (fun o -> if add target o then changed := true) (get source)
          | Load { target; base = _; field } ->
            if add target (OLoad field) then changed := true
          | Store _ -> ()
          | Alloc _ | Cast _ | Virtual_call _ | Static_call _ | Static_load _
          | Static_store _ | Throw _ ->
            assert false)
        instrs
    done;
    let only_this v = List.for_all (fun o -> o = OThis) (get v) in
    let direct_arg = function
      | OThis -> This
      | OParam i -> Param i
      | OLoad _ -> raise Bail
    in
    let items = ref [] in
    List.iter
      (fun instr ->
        match instr with
        | Load { base; _ } -> if not (only_this base) then raise Bail
        | Store { base; field; source } ->
          if not (only_this base) then raise Bail;
          List.iter
            (fun o -> items := Store_field (field, direct_arg o) :: !items)
            (get source)
        | Move _ -> ()
        | Alloc _ | Cast _ | Virtual_call _ | Static_call _ | Static_load _
        | Static_store _ | Throw _ ->
          assert false)
      instrs;
    (match mi.ret_var with
    | Some r ->
      List.iter
        (fun o ->
          items :=
            (match o with
            | OThis -> Copy_ret This
            | OParam i -> Copy_ret (Param i)
            | OLoad f -> Load_ret f)
            :: !items)
        (get r)
    | None -> ());
    Some (List.sort_uniq compare_item !items)
  with Bail -> None

let compute program =
  let hierarchy = Hierarchy.create program in
  let summaries = Hashtbl.create 64 in
  Program.iter_meths program (fun meth mi ->
      match summarize mi with
      | Some items -> Hashtbl.add summaries (Meth_id.to_int meth) items
      | None -> ());
  let summary m = Hashtbl.find_opt summaries (Meth_id.to_int m) in
  (* A virtual call site can be cut only when every method its signature
     may dispatch to — over all classes — carries the same summary, so
     the caller-side flows are valid whatever the receiver turns out to
     be. *)
  let sig_verdicts = Hashtbl.create 16 in
  let sig_verdict s =
    match Hashtbl.find_opt sig_verdicts (Sig_id.to_int s) with
    | Some v -> v
    | None ->
      let targets = ref Meth_id.Set.empty in
      for ty = 0 to Program.n_types program - 1 do
        match Hierarchy.lookup hierarchy (Type_id.of_int ty) s with
        | Some m when not (Program.meth_info program m).meth_static ->
          targets := Meth_id.Set.add m !targets
        | Some _ | None -> ()
      done;
      let v =
        if Meth_id.Set.is_empty !targets then None
        else
          match Meth_id.Set.choose_opt !targets with
          | None -> None
          | Some first -> (
            match summary first with
            | None -> None
            | Some items ->
              if
                Meth_id.Set.for_all
                  (fun m -> summary m = Some items)
                  !targets
              then Some (items, !targets)
              else None)
      in
      Hashtbl.add sig_verdicts (Sig_id.to_int s) v;
      v
  in
  let actions = Hashtbl.create 64 in
  let summarized = ref Meth_id.Set.empty in
  Program.iter_meths program (fun _ mi ->
      iter_instrs
        (fun instr ->
          match instr with
          | Virtual_call { signature; invo; _ } -> (
            match sig_verdict signature with
            | Some (items, targets) ->
              Hashtbl.replace actions (Invo_id.to_int invo) items;
              summarized := Meth_id.Set.union targets !summarized
            | None -> ())
          | Static_call { callee; invo; _ } -> (
            match summary callee with
            | Some items ->
              Hashtbl.replace actions (Invo_id.to_int invo) items;
              summarized := Meth_id.Set.add callee !summarized
            | None -> ())
          | Alloc _ | Move _ | Cast _ | Load _ | Store _ | Static_load _
          | Static_store _ | Throw _ ->
            ())
        mi.body);
  {
    actions;
    summarized = !summarized;
    n_cut_sites = Hashtbl.length actions;
  }

let action t invo = Hashtbl.find_opt t.actions (Invo_id.to_int invo)
let summarized t = t.summarized
