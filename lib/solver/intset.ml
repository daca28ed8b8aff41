(* Big-endian Patricia trees for non-negative integers, after Okasaki &
   Gill, "Fast Mergeable Integer Maps".  The representation is canonical
   (equal sets have equal structure) and hash-consed: every [Leaf] and
   [Branch] is built through one cons table, so within a table equal
   subtrees are one physical node.  Hybrid context-sensitivity repeats
   the same points-to sets across many contexts; consing stores each
   distinct subtree once.  Every constructor goes through [leaf] or
   [node]; never build a [Leaf] or [Branch] directly. *)

type t =
  | Empty
  | Leaf of int
  | Branch of int * int * t * t * int
      (* Branch (prefix, branching_bit, left, right, hash): [left] holds
         elements whose branching bit is 0, [right] those where it is 1.
         All elements agree with [prefix] above the branching bit.
         [hash] is computed from the children's, so it depends only on
         the elements. *)

let hash = function
  | Empty -> 0
  | Leaf i -> i
  | Branch (_, _, _, _, h) -> h

let mix a b =
  let h = (a + (b * 0x9E3779B97F4A7C1)) * 0xBF58476D1CE4E5B in
  h lxor (h lsr 31)

(* The cons table: open addressing with linear probing over one strong
   array that holds every node built since the last [new_table].
   [tags] holds a byte per slot: 0 for an empty slot (it ends a probe),
   else 1 + seven bits of the slot's hash, so a probe reads a key only
   when its tag matches.  Children are already consed, so one level of
   physical comparison decides equality, and a lookup builds a [Leaf]
   or [Branch] only on a miss.  The hashes are structural, not
   counters, and nothing is ever removed: the table's layout depends
   only on the sequence of sets built since it started. *)
let min_capacity = 64

type table = {
  mutable keys : t array;
  mutable tags : Bytes.t;
  mutable used : int;  (* slots with a nonzero tag *)
}

let table =
  {
    keys = Array.make min_capacity Empty;
    tags = Bytes.make min_capacity '\000';
    used = 0;
  }

(* The first slot and the tag of a hash.  [hash] itself is the element
   for a leaf, so it is scrambled before its bits pick either; the slot
   is 32 of those bits scaled to the capacity, which need not be a power
   of two. *)
let scramble h =
  let x = h * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let tag_of x = Char.unsafe_chr (1 + (x land 127))
let start_of x cap = (((x lsr 7) land 0xFFFF_FFFF) * cap) lsr 32
let next j cap = if j + 1 = cap then 0 else j + 1

(* The first empty slot on a probe sequence from [j]. *)
let rec free_slot tags cap j =
  if Bytes.unsafe_get tags j = '\000' then j
  else free_slot tags cap (next j cap)

(* Rebuild 2/5 full. *)
let grow () =
  let old_keys = table.keys and old_tags = table.tags in
  let cap = table.used * 5 / 2 in
  let keys = Array.make cap Empty and tags = Bytes.make cap '\000' in
  for i = 0 to Array.length old_keys - 1 do
    if Bytes.unsafe_get old_tags i <> '\000' then begin
      let k = Array.unsafe_get old_keys i in
      let x = scramble (hash k) in
      let j = free_slot tags cap (start_of x cap) in
      Bytes.unsafe_set tags j (tag_of x);
      Array.unsafe_set keys j k
    end
  done;
  table.keys <- keys;
  table.tags <- tags

(* Store a node built on a miss in slot [j] (empty), growing the table
   once the used slots pass 3/4 of it. *)
let insert j x v =
  Bytes.unsafe_set table.tags j (tag_of x);
  Array.unsafe_set table.keys j v;
  table.used <- table.used + 1;
  if 4 * table.used > 3 * Array.length table.keys then grow ();
  v

(* The front cache: a direct-mapped array of recently consed nodes,
   indexed by low bits of the scrambled hash, that [leaf] and [node]
   check before probing.  A front hit reads no tag and no table slot.
   Every node in it is also in the table, which never drops one, so a
   front hit is the node the probe would have found. *)
let front_size = 4096
let front = Array.make front_size Empty
let front_slot x = x land (front_size - 1)

let new_table () =
  table.keys <- Array.make min_capacity Empty;
  table.tags <- Bytes.make min_capacity '\000';
  table.used <- 0;
  Array.fill front 0 front_size Empty

(* Probes return the node they find, or [Empty] after recording in
   [miss] the empty slot that ended the probe: top-level functions with
   no closure, so a hit allocates nothing. *)
let miss = ref 0

let rec find_leaf keys tags cap tag i j =
  let c = Bytes.unsafe_get tags j in
  if c = '\000' then begin
    miss := j;
    Empty
  end
  else if c <> tag then find_leaf keys tags cap tag i (next j cap)
  else
    match Array.unsafe_get keys j with
    | Leaf k as v when k = i -> v
    | _ -> find_leaf keys tags cap tag i (next j cap)

let rec find_branch keys tags cap tag l r j =
  let c = Bytes.unsafe_get tags j in
  if c = '\000' then begin
    miss := j;
    Empty
  end
  else if c <> tag then find_branch keys tags cap tag l r (next j cap)
  else
    match Array.unsafe_get keys j with
    | Branch (_, _, l', r', _) as v when l' == l && r' == r -> v
    | _ -> find_branch keys tags cap tag l r (next j cap)

let leaf i =
  let x = scramble i in
  let f = front_slot x in
  match Array.unsafe_get front f with
  | Leaf k as v when k = i -> v
  | _ ->
    let keys = table.keys in
    let cap = Array.length keys in
    let v = find_leaf keys table.tags cap (tag_of x) i (start_of x cap) in
    let v = if v == Empty then insert !miss x (Leaf i) else v in
    Array.unsafe_set front f v;
    v

(* The one way to build a [Branch]: the table's node with these
   children if there is one, else a new one.  [prefix] and [bit] follow
   from the children, so comparing the children decides equality. *)
let node p m l r =
  let h = mix (hash l) (hash r) in
  let x = scramble h in
  let f = front_slot x in
  match Array.unsafe_get front f with
  | Branch (_, _, l', r', _) as v when l' == l && r' == r -> v
  | _ ->
    let keys = table.keys in
    let cap = Array.length keys in
    let v = find_branch keys table.tags cap (tag_of x) l r (start_of x cap) in
    let v =
      if v == Empty then insert !miss x (Branch (p, m, l, r, h)) else v
    in
    Array.unsafe_set front f v;
    v

let empty = Empty
let is_empty t = t == Empty

(* Within one table [(==)] decides; a set from an earlier table is
   compared by structure, which is canonical, once the hashes agree.  A
   leaf's hash is its element, so two leaves with one hash are equal. *)
let rec equal s t =
  s == t
  || hash s = hash t
     &&
     match (s, t) with
     | Branch (p, m, sl, sr, _), Branch (q, n, tl, tr, _) ->
       p = q && m = n && equal sl tl && equal sr tr
     | Leaf _, Leaf _ -> true
     | _ -> false

let check_elt i = if i < 0 then invalid_arg "Intset: negative element"

let singleton i =
  check_elt i;
  leaf i

(* Keep only the bits of [k] strictly above bit [m]. *)
let mask k m = k land lnot ((m lsl 1) - 1)
let match_prefix k p m = mask k m = p
let zero_bit k m = k land m = 0

(* Isolate the highest set bit of [x] by smearing it rightwards. *)
let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

(* Highest bit where [a] and [b] differ. *)
let branching_bit a b = highest_bit (a lxor b)

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then node (mask p0 m) m t0 t1
  else node (mask p0 m) m t1 t0

let rec mem i = function
  | Empty -> false
  | Leaf j -> i = j
  | Branch (p, m, l, r, _) ->
    if not (match_prefix i p m) then false
    else if zero_bit i m then mem i l
    else mem i r

let rec add i t =
  match t with
  | Empty ->
    check_elt i;
    leaf i
  | Leaf j ->
    if i = j then t
    else begin
      check_elt i;
      join i (leaf i) j t
    end
  | Branch (p, m, l, r, _) ->
    if match_prefix i p m then
      if zero_bit i m then
        let l' = add i l in
        if l' == l then t else node p m l' r
      else
        let r' = add i r in
        if r' == r then t else node p m l r'
    else begin
      check_elt i;
      join i (leaf i) p t
    end

let branch p m l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _ -> node p m l r

let rec remove i t =
  match t with
  | Empty -> Empty
  | Leaf j -> if i = j then Empty else t
  | Branch (p, m, l, r, _) ->
    if not (match_prefix i p m) then t
    else if zero_bit i m then
      let l' = remove i l in
      if l' == l then t else branch p m l' r
    else
      let r' = remove i r in
      if r' == r then t else branch p m l r'

let rec union s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, u | u, Empty -> u
    | Leaf i, u -> add i u
    | u, Leaf i -> add i u
    | Branch (p, m, sl, sr, _), Branch (q, n, tl, tr, _) ->
      if m = n && p = q then begin
        let l = union sl tl and r = union sr tr in
        if l == sl && r == sr then s else node p m l r
      end
      else if m > n && match_prefix q p m then
        if zero_bit q m then
          let l = union sl t in
          if l == sl then s else node p m l sr
        else
          let r = union sr t in
          if r == sr then s else node p m sl r
      else if m < n && match_prefix p q n then
        if zero_bit p n then node q n (union s tl) tr
        else node q n tl (union s tr)
      else join p s q t

(* Within one table the union equals [s] exactly when it is [s], so
   [equal] stops at the pointer test. *)
let union_stats s t =
  let u = union s t in
  if equal u s then (s, false) else (u, true)

let rec inter s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ | _, Empty -> Empty
    | Leaf i, u -> if mem i u then s else Empty
    | u, Leaf i -> if mem i u then t else Empty
    | Branch (p, m, sl, sr, _), Branch (q, n, tl, tr, _) ->
      if m = n && p = q then branch p m (inter sl tl) (inter sr tr)
      else if m > n && match_prefix q p m then
        inter (if zero_bit q m then sl else sr) t
      else if m < n && match_prefix p q n then
        inter s (if zero_bit p n then tl else tr)
      else Empty

let rec diff s t =
  if s == t then Empty
  else
    match (s, t) with
    | Empty, _ -> Empty
    | u, Empty -> u
    | Leaf i, u -> if mem i u then Empty else s
    | u, Leaf i -> remove i u
    | Branch (p, m, sl, sr, _), Branch (q, n, tl, tr, _) ->
      if m = n && p = q then begin
        let l = diff sl tl and r = diff sr tr in
        if l == sl && r == sr then s else branch p m l r
      end
      else if m > n && match_prefix q p m then
        if zero_bit q m then
          let l = diff sl t in
          if l == sl then s else branch p m l sr
        else
          let r = diff sr t in
          if r == sr then s else branch p m sl r
      else if m < n && match_prefix p q n then
        diff s (if zero_bit p n then tl else tr)
      else s

(* The half of [t] relevant to each child of a Branch with prefix [p] and
   branching bit [m]: elements of [t] under (p, m) split by bit [m].
   Returns subtrees of [t] — no elements are copied. *)
let rec split_under p m t =
  match t with
  | Empty -> (Empty, Empty)
  | Leaf i ->
    if not (match_prefix i p m) then (Empty, Empty)
    else if zero_bit i m then (t, Empty)
    else (Empty, t)
  | Branch (q, n, tl, tr, _) ->
    if n > m then
      (* [t] spans wider: the whole (p, m) range lies inside one child of
         [t]; descend that child. *)
      if match_prefix p q n then
        split_under p m (if zero_bit p n then tl else tr)
      else (Empty, Empty)
    else if n = m && q = p then (tl, tr)
    else if
      (* [n <= m], prefixes disagreeing at or above [m] never overlap. *)
      match_prefix q p m
    then if zero_bit q m then (t, Empty) else (Empty, t)
    else (Empty, Empty)

(* [diff2 s a b] = [diff (diff s a) b] in one pass over [s], without
   materializing the intermediate tree — the solver's delta path
   ([fresh = incoming \ all \ pending]) runs through here. *)
let rec diff2 s a b =
  if s == a || s == b then Empty
  else
    match s with
    | Empty -> Empty
    | Leaf i -> if mem i a || mem i b then Empty else s
    | Branch (p, m, sl, sr, _) -> (
      match (a, b) with
      | Empty, Empty -> s
      | Empty, t | t, Empty -> diff s t
      | _ ->
        let al, ar = split_under p m a in
        let bl, br = split_under p m b in
        let l = diff2 sl al bl in
        let r = diff2 sr ar br in
        if l == sl && r == sr then s else branch p m l r)

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r, _) -> cardinal l + cardinal r

let rec subset s t =
  s == t
  ||
  match (s, t) with
  | Empty, _ -> true
  | _, Empty -> false
  | Leaf i, u -> mem i u
  | Branch _, Leaf _ -> false
  | Branch (p, m, sl, sr, _), Branch (q, n, tl, tr, _) ->
    if m = n && p = q then subset sl tl && subset sr tr
    else if m < n && match_prefix p q n then
      subset s (if zero_bit p n then tl else tr)
    else false

let rec iter f = function
  | Empty -> ()
  | Leaf i -> f i
  | Branch (_, _, l, r, _) ->
    iter f l;
    iter f r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf i -> f i acc
  | Branch (_, _, l, r, _) -> fold f r (fold f l acc)

let rec exists p = function
  | Empty -> false
  | Leaf i -> p i
  | Branch (_, _, l, r, _) -> exists p l || exists p r

let rec for_all p = function
  | Empty -> true
  | Leaf i -> p i
  | Branch (_, _, l, r, _) -> for_all p l && for_all p r

(* Visits elements in increasing order, like [fold]. *)
let rec filter f t =
  match t with
  | Empty -> Empty
  | Leaf i -> if f i then t else Empty
  | Branch (p, m, l, r, _) ->
    let l' = filter f l in
    let r' = filter f r in
    if l' == l && r' == r then t else branch p m l' r'

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

(* [a.(lo .. hi-1)], non-empty, strictly increasing: the highest bit
   where its ends differ splits it into the two children. *)
let rec of_range a lo hi =
  if hi - lo = 1 then leaf a.(lo)
  else begin
    let first = a.(lo) in
    let m = branching_bit first a.(hi - 1) in
    let k = ref (lo + 1) in
    while zero_bit a.(!k) m do
      incr k
    done;
    node (mask first m) m (of_range a lo !k) (of_range a !k hi)
  end

let of_sorted_array a =
  let n = Array.length a in
  if n = 0 then Empty
  else begin
    check_elt a.(0);
    for i = 1 to n - 1 do
      if a.(i - 1) >= a.(i) then
        invalid_arg "Intset.of_sorted_array: not strictly increasing"
    done;
    of_range a 0 n
  end

let of_list l = of_sorted_array (Array.of_list (List.sort_uniq Int.compare l))

let rec choose_opt = function
  | Empty -> None
  | Leaf i -> Some i
  | Branch (_, _, l, _, _) -> choose_opt l
