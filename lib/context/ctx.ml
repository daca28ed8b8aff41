module Ir = Pta_ir.Ir
module Vec = Pta_ir.Vec

type elem =
  | Star
  | Heap of Ir.Heap_id.t
  | Invo of Ir.Invo_id.t
  | Type of Ir.Type_id.t

let elem_equal a b =
  match (a, b) with
  | Star, Star -> true
  | Heap x, Heap y -> Ir.Heap_id.equal x y
  | Invo x, Invo y -> Ir.Invo_id.equal x y
  | Type x, Type y -> Ir.Type_id.equal x y
  | (Star | Heap _ | Invo _ | Type _), _ -> false

let elem_hash = function
  | Star -> 0x5a5a5a
  | Heap h -> (Ir.Heap_id.to_int h * 4) + 1
  | Invo i -> (Ir.Invo_id.to_int i * 4) + 2
  | Type t -> (Ir.Type_id.to_int t * 4) + 3

type value = elem array

let value_equal a b =
  Array.length a = Array.length b
  &&
  let rec loop i = i >= Array.length a || (elem_equal a.(i) b.(i) && loop (i + 1)) in
  loop 0

let value_hash v =
  Array.fold_left (fun acc e -> (acc * 31) + elem_hash e) (Array.length v) v
  land max_int

type id = int

module Value_tbl = Hashtbl.Make (struct
  type t = value

  let equal = value_equal
  let hash = value_hash
end)

type store = {
  table : id Value_tbl.t;
  rev : value Vec.t;
}

let create_store () = { table = Value_tbl.create 1024; rev = Vec.create () }

let intern store v =
  match Value_tbl.find_opt store.table v with
  | Some id -> id
  | None ->
    let id = Vec.push store.rev v in
    Value_tbl.add store.table v id;
    id

let value store id = Vec.get store.rev id
let size store = Vec.length store.rev

let elem_name program = function
  | Star -> "*"
  | Heap h -> Ir.Program.heap_name program h
  | Invo i -> Ir.Program.invo_name program i
  | Type t -> Ir.Program.type_name program t

let value_to_string program v =
  "[" ^ String.concat ", " (List.map (elem_name program) (Array.to_list v)) ^ "]"

let pp_value program ppf v = Format.pp_print_string ppf (value_to_string program v)

let nth v i = if i < Array.length v then v.(i) else Star
let first v = nth v 0
let second v = nth v 1
let third v = nth v 2
