(* One array of canonical ids.  A class is a tree whose links always
   point at a smaller id, so its root is its smallest member whatever
   the union order, and the solver's node numbering stays reproducible
   (results must not depend on when a cycle happened to be detected).
   [find] halves the path it walks; one ascending pass of [find] over
   every id leaves each entry holding its root, after which [find] is a
   single read.  The solver's collapse pass makes that sweep. *)

type t = {
  mutable canon : int array;  (* canon.(i) <= i; canon.(i) = i at roots *)
  mutable n : int;  (* ids [0, n) are live *)
  mutable merged : int;
}

let create ?(capacity = 1024) () =
  { canon = Array.make (max capacity 1) 0; n = 0; merged = 0 }

let length t = t.n

let ensure t n =
  if n > t.n then begin
    let cap = Array.length t.canon in
    if n > cap then begin
      let canon = Array.make (max n (2 * cap)) 0 in
      Array.blit t.canon 0 canon 0 t.n;
      t.canon <- canon
    end;
    for i = t.n to n - 1 do
      t.canon.(i) <- i
    done;
    t.n <- n
  end

(* Path halving: point each visited id at its grandparent. *)
let rec find t i =
  let p = t.canon.(i) in
  if p = i then i
  else begin
    let g = t.canon.(p) in
    if g = p then p
    else begin
      t.canon.(i) <- g;
      find t g
    end
  end

let same t a b = find t a = find t b

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    t.merged <- t.merged + 1;
    let m = min ra rb in
    t.canon.(max ra rb) <- m;
    m
  end

let n_merged t = t.merged

let depth t i =
  let rec go i acc =
    if t.canon.(i) = i then acc else go t.canon.(i) (acc + 1)
  in
  go i 0
