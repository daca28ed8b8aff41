type 'a t = {
  mutable data : 'a array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }

(* Doubles a full array by appending it to itself: the slots beyond
   [size] hold copies of existing elements, so no [Obj.magic] is needed.
   [Array.make] with an element still in the minor heap would force a
   minor collection once the array outgrows the minor heap's largest
   block; [Array.append] copies into the major heap without one. *)
let grow v = v.data <- Array.append v.data v.data

let push v x =
  let i = v.size in
  if i >= Array.length v.data then
    if i = 0 then v.data <- Array.make 8 x else grow v;
  v.data.(i) <- x;
  v.size <- i + 1;
  i

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  v.data.(i) <- x

let length v = v.size
let is_empty v = v.size = 0

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_array v = Array.sub v.data 0 v.size

let map_to_array f v =
  let r = create () in
  iter (fun x -> ignore (push r (f x))) v;
  to_array r
let to_list v = Array.to_list (to_array v)

let of_list xs =
  let v = create () in
  List.iter (fun x -> ignore (push v x)) xs;
  v
