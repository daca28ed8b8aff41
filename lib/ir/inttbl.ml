type t = {
  pair_key : bool;  (* a set: both ints of a slot are the key *)
  mutable slots : int array;  (* slot [i] is [slots.(2i)], [slots.(2i+1)] *)
  mutable size : int;
}

let empty = -1
let absent = min_int
let initial_slots = 8

let make pair_key =
  { pair_key; slots = Array.make (2 * initial_slots) empty; size = 0 }

let create_map () = make false
let create_set () = make true

let pack a b =
  if (a lor b) lsr 31 <> 0 then invalid_arg "Inttbl.pack";
  (a lsl 31) lor b

let high k = k lsr 31
let low k = k land 0x7FFF_FFFF

(* Multiply-xorshift: packed keys differ mostly in their low bits of each
   half, so both halves must reach the low bits the mask keeps. *)
let mix h =
  let h = h * 0x2545_F491_4F6C_DD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B87_3593_4F6C_DD1D in
  h lxor (h lsr 32)

let hash t k1 k2 = if t.pair_key then mix (mix k1 + k2) else mix k1

(* The index in [slots] of the slot holding the key, or of the empty
   slot that ends its probe sequence.  [mask + 1] slots, at least one
   empty, so the loop ends; every index read is below [2 * (mask + 1)]. *)
let rec probe slots mask pair_key k1 k2 i =
  let j = 2 * i in
  let s = Array.unsafe_get slots j in
  if s = empty || (s = k1 && ((not pair_key) || Array.unsafe_get slots (j + 1) = k2))
  then j
  else probe slots mask pair_key k1 k2 ((i + 1) land mask)

let locate t k1 k2 =
  let mask = (Array.length t.slots lsr 1) - 1 in
  probe t.slots mask t.pair_key k1 k2 (hash t k1 k2 land mask)

let find t k =
  let j = locate t k 0 in
  let s = t.slots in
  if s.(j) = empty then absent else s.(j + 1)

let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) empty;
  for i = 0 to (Array.length old / 2) - 1 do
    let k1 = old.(2 * i) in
    if k1 <> empty then begin
      let k2 = old.((2 * i) + 1) in
      let j = locate t k1 k2 in
      t.slots.(j) <- k1;
      t.slots.(j + 1) <- k2
    end
  done

(* Doubles the capacity once more than three quarters of the slots are
   taken. *)
let insert t j k1 k2 =
  t.slots.(j) <- k1;
  t.slots.(j + 1) <- k2;
  t.size <- t.size + 1;
  if 8 * t.size > 3 * Array.length t.slots then grow t

let slot_for_add t k1 k2 =
  if k1 < 0 then invalid_arg "Inttbl.add";
  locate t k1 k2

let add t k1 k2 =
  let j = slot_for_add t k1 k2 in
  if t.slots.(j) = empty then insert t j k1 k2 else t.slots.(j + 1) <- k2

let add_new t k1 k2 =
  let j = slot_for_add t k1 k2 in
  t.slots.(j) = empty
  && begin
       insert t j k1 k2;
       true
     end

let length t = t.size

let iter f t =
  let s = t.slots in
  for i = 0 to (Array.length s / 2) - 1 do
    let k1 = s.(2 * i) in
    if k1 <> empty then f k1 s.((2 * i) + 1)
  done

let fold f t acc =
  let s = t.slots in
  let acc = ref acc in
  for i = 0 to (Array.length s / 2) - 1 do
    let k1 = s.(2 * i) in
    if k1 <> empty then acc := f k1 s.((2 * i) + 1) !acc
  done;
  !acc
