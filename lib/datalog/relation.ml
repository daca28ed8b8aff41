module Vec = Pta_ir.Vec

module Fact_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec loop i = i >= Array.length a || (a.(i) = b.(i) && loop (i + 1)) in
    loop 0

  let hash (a : int array) =
    Array.fold_left (fun acc x -> (acc * 31) + x + 1) (Array.length a) a
    land max_int
end)

(* An index maps the projection of a fact onto a set of bound positions
   to the list of matching fact ids. *)
type index = {
  positions : int list;  (* ascending *)
  buckets : int list ref Fact_tbl.t;
}

type t = {
  rel_name : string;
  rel_arity : int;
  facts : int array Vec.t;
  seen : unit Fact_tbl.t;
  mutable indexes : index list;
}

let create ~name ~arity =
  {
    rel_name = name;
    rel_arity = arity;
    facts = Vec.create ();
    seen = Fact_tbl.create 64;
    indexes = [];
  }

let name r = r.rel_name
let arity r = r.rel_arity

let project positions fact = Array.of_list (List.map (fun i -> fact.(i)) positions)

let index_insert idx fact_id fact =
  let key = project idx.positions fact in
  match Fact_tbl.find_opt idx.buckets key with
  | Some ids -> ids := fact_id :: !ids
  | None -> Fact_tbl.add idx.buckets key (ref [ fact_id ])

let add r fact =
  if Array.length fact <> r.rel_arity then
    invalid_arg
      (Printf.sprintf "Relation.add: %s expects arity %d, got %d" r.rel_name
         r.rel_arity (Array.length fact));
  if Fact_tbl.mem r.seen fact then false
  else begin
    Fact_tbl.add r.seen fact ();
    let id = Vec.push r.facts fact in
    List.iter (fun idx -> index_insert idx id fact) r.indexes;
    true
  end

let mem r fact = Fact_tbl.mem r.seen fact
let cardinal r = Vec.length r.facts
let iter f r = Vec.iter f r.facts
let fold f r acc = Vec.fold_left (fun acc fact -> f fact acc) acc r.facts
let nth r i = Vec.get r.facts i

let bound_positions pattern =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if pattern.(i) >= 0 then i :: acc else acc)
  in
  loop (Array.length pattern - 1) []

let find_or_build_index r positions =
  match List.find_opt (fun idx -> idx.positions = positions) r.indexes with
  | Some idx -> idx
  | None ->
    let idx = { positions; buckets = Fact_tbl.create 256 } in
    Vec.iteri (fun id fact -> index_insert idx id fact) r.facts;
    r.indexes <- idx :: r.indexes;
    idx

let select r ~pattern f =
  if Array.length pattern <> r.rel_arity then
    invalid_arg "Relation.select: pattern arity mismatch";
  match bound_positions pattern with
  | [] -> iter f r
  | positions ->
    let idx = find_or_build_index r positions in
    let key = project positions pattern in
    (match Fact_tbl.find_opt idx.buckets key with
    | None -> ()
    | Some ids -> List.iter (fun id -> f (Vec.get r.facts id)) !ids)
