module Ir = Pta_ir.Ir
module Shortcut = Pta_context.Shortcut
open Ir

type t = {
  copies : (int * int) list;
  loads : (int * int * int) list;
  stores : (int * int * int) list;
  sloads : (int * int * int) list;
  sstores : (int * int) list;
  args : (int * int * int) list;
  this_args : (int * int) list;
  rets : (int * int) list;
  sink_args : (int * int * int) list;
}

type handler = {
  copy : int -> int -> unit;
  load : int -> int -> int -> unit;
  store : int -> int -> int -> unit;
  sload : int -> int -> unit;
  sstore : int -> int -> unit;
  arg : int -> int -> int -> unit;
  this_arg : int -> int -> unit;
  ret : int -> int -> unit;
  sink_arg : int -> int -> int -> unit;
}

let ignore2 _ _ = ()
let ignore3 _ _ _ = ()

let nothing =
  {
    copy = ignore2;
    load = ignore3;
    store = ignore3;
    sload = ignore2;
    sstore = ignore2;
    arg = ignore3;
    this_arg = ignore2;
    ret = ignore2;
    sink_arg = ignore3;
  }

let iter_meth program ~plan h meth =
  let cut_action invo =
    match plan with
    | None -> None
    | Some plan -> Shortcut.action plan invo
  in
  (* Mirror of the refimpl EDB builder's [add_cut_item]: items whose
     return target or receiver is missing are dropped at application. *)
  let add_cut_item ~base ~args ~ret_target item =
    let arg_var = function
      | Shortcut.This -> base
      | Shortcut.Param i -> List.nth_opt args i
    in
    match item with
    | Shortcut.Copy_ret arg -> (
      match (ret_target, arg_var arg) with
      | Some ret, Some src -> h.copy (Var_id.to_int ret) (Var_id.to_int src)
      | _ -> ())
    | Shortcut.Load_ret field -> (
      match (ret_target, base) with
      | Some ret, Some b ->
        h.load (Var_id.to_int ret) (Var_id.to_int b) (Field_id.to_int field)
      | _ -> ())
    | Shortcut.Store_field (field, arg) -> (
      match (base, arg_var arg) with
      | Some b, Some src ->
        h.store (Var_id.to_int b) (Field_id.to_int field) (Var_id.to_int src)
      | _ -> ())
  in
  let call ~base ~invo ~args ~ret_target =
    let i = Invo_id.to_int invo in
    List.iteri (fun pos a -> h.sink_arg i pos (Var_id.to_int a)) args;
    match cut_action invo with
    | Some items -> List.iter (add_cut_item ~base ~args ~ret_target) items
    | None ->
      List.iteri (fun pos a -> h.arg i pos (Var_id.to_int a)) args;
      Option.iter (fun b -> h.this_arg i (Var_id.to_int b)) base;
      Option.iter (fun v -> h.ret i (Var_id.to_int v)) ret_target
  in
  iter_instrs
    (fun instr ->
      match instr with
      | Alloc _ | Throw _ -> ()
      | Move { target; source } | Cast { target; source; _ } ->
        (* Casts propagate taint unconditionally in both engines:
           taint tracks the reference, not the pointed-to type. *)
        h.copy (Var_id.to_int target) (Var_id.to_int source)
      | Load { target; base; field } ->
        h.load (Var_id.to_int target) (Var_id.to_int base) (Field_id.to_int field)
      | Store { base; field; source } ->
        h.store (Var_id.to_int base) (Field_id.to_int field) (Var_id.to_int source)
      | Virtual_call { base; invo; args; ret_target; _ } ->
        call ~base:(Some base) ~invo ~args ~ret_target
      | Static_call { invo; args; ret_target; _ } ->
        call ~base:None ~invo ~args ~ret_target
      | Static_load { target; field } ->
        h.sload (Var_id.to_int target) (Field_id.to_int field)
      | Static_store { field; source } ->
        h.sstore (Field_id.to_int field) (Var_id.to_int source))
    (Program.meth_info program meth).body

let extract program ~plan =
  let copies = ref []
  and loads = ref []
  and stores = ref []
  and sloads = ref []
  and sstores = ref []
  and args = ref []
  and this_args = ref []
  and rets = ref []
  and sink_args = ref []
  and meth = ref 0 in
  let h =
    {
      copy = (fun d s -> copies := (d, s) :: !copies);
      load = (fun d b f -> loads := (d, b, f) :: !loads);
      store = (fun b f s -> stores := (b, f, s) :: !stores);
      sload = (fun d f -> sloads := (d, f, !meth) :: !sloads);
      sstore = (fun f s -> sstores := (f, s) :: !sstores);
      arg = (fun i p a -> args := (i, p, a) :: !args);
      this_arg = (fun i b -> this_args := (i, b) :: !this_args);
      ret = (fun i v -> rets := (i, v) :: !rets);
      sink_arg = (fun i p a -> sink_args := (i, p, a) :: !sink_args);
    }
  in
  Program.iter_meths program (fun m _ ->
      meth := Meth_id.to_int m;
      iter_meth program ~plan h m);
  {
    copies = List.rev !copies;
    loads = List.rev !loads;
    stores = List.rev !stores;
    sloads = List.rev !sloads;
    sstores = List.rev !sstores;
    args = List.rev !args;
    this_args = List.rev !this_args;
    rets = List.rev !rets;
    sink_args = List.rev !sink_args;
  }
