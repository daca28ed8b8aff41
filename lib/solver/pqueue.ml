(* Layout in the interface.  Invariants: bucket [b] is nonempty iff bit
   [b land 31] of [levels.(0).(b lsr 5)] is set; for [k > 0], word [w]
   of level [k - 1] is nonzero iff bit [w land 31] of
   [levels.(k).(w lsr 5)] is set; the last level is one word. *)

let word_bits = 5
let word_mask = (1 lsl word_bits) - 1

(* Index of the lowest set bit of a nonzero 32-bit word: isolate the bit,
   multiply it by a de Bruijn sequence and look the product's top five
   bits up.  The product stays below 2^58, so no bit is lost. *)
let debruijn = 0x077C_B531

let debruijn_index =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.(((debruijn lsl i) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  tbl

let lowest_bit w =
  Array.unsafe_get debruijn_index
    ((((w land (-w)) * debruijn) land 0xFFFF_FFFF) lsr 27)

type t = {
  mutable heads : int array;  (* bucket -> its newest entry, or -1 *)
  mutable levels : int array array;
      (* occupancy bitmaps, buckets first, each summarising the one below *)
  mutable cells : int array;
      (* entry [e] is the pair [cells.(e)] = next entry of its bucket or
         -1, [cells.(e + 1)] = value *)
  mutable free : int;  (* popped entries, chained through their next field *)
  mutable top : int;  (* [cells.(top ..)] unused since creation or [clear] *)
  mutable len : int;
}

let create () =
  {
    heads = Array.make 32 (-1);
    levels = [| [| 0 |] |];
    cells = Array.make 32 0;
    free = -1;
    top = 0;
    len = 0;
  }

(* The levels above [bits], each one bit per nonzero word below, up to
   a single word. *)
let rec summarise bits =
  if Array.length bits = 1 then [ bits ]
  else begin
    let up = Array.make ((Array.length bits + word_mask) lsr word_bits) 0 in
    Array.iteri
      (fun w word ->
        if word <> 0 then
          up.(w lsr word_bits) <-
            up.(w lsr word_bits) lor (1 lsl (w land word_mask)))
      bits;
    bits :: summarise up
  end

let grow t want =
  let cap = Array.length t.heads in
  let cap' = ref (2 * cap) in
  while want >= !cap' do
    cap' := 2 * !cap'
  done;
  let heads = Array.make !cap' (-1) in
  Array.blit t.heads 0 heads 0 cap;
  t.heads <- heads;
  let bits = Array.make (!cap' lsr word_bits) 0 in
  Array.blit t.levels.(0) 0 bits 0 (Array.length t.levels.(0));
  t.levels <- Array.of_list (summarise bits)

let alloc t =
  let e = t.free in
  if e >= 0 then begin
    t.free <- t.cells.(e);
    e
  end
  else begin
    let e = t.top in
    if e = Array.length t.cells then begin
      let cells = Array.make (2 * e) 0 in
      Array.blit t.cells 0 cells 0 e;
      t.cells <- cells
    end;
    t.top <- e + 2;
    e
  end

(* Set bit [i] of level [k], and the levels above while a word turns
   nonzero. *)
let rec mark levels k i =
  let level = Array.unsafe_get levels k in
  let w = i lsr word_bits in
  let word = level.(w) in
  level.(w) <- word lor (1 lsl (i land word_mask));
  if word = 0 && k + 1 < Array.length levels then mark levels (k + 1) w

(* Clear bit [i] of level [k], and the levels above while a word turns
   zero. *)
let rec unmark levels k i =
  let level = Array.unsafe_get levels k in
  let w = i lsr word_bits in
  let word = level.(w) land lnot (1 lsl (i land word_mask)) in
  level.(w) <- word;
  if word = 0 && k + 1 < Array.length levels then unmark levels (k + 1) w

let push t ~prio v =
  let prio = if prio < 0 then 0 else prio in
  if prio >= Array.length t.heads then grow t prio;
  let e = alloc t in
  let head = t.heads.(prio) in
  t.cells.(e) <- head;
  t.cells.(e + 1) <- v;
  t.heads.(prio) <- e;
  if head < 0 then mark t.levels 0 prio;
  t.len <- t.len + 1

let is_empty t = t.len = 0
let length t = t.len

(* One word per level, from the top: each level's lowest set bit picks
   the word to read below it. *)
let rec lowest levels k w =
  let w = (w lsl word_bits) lor lowest_bit (Array.unsafe_get levels k).(w) in
  if k = 0 then w else lowest levels (k - 1) w

let pop t =
  if t.len = 0 then invalid_arg "Pqueue.pop: empty";
  let levels = t.levels in
  let b = lowest levels (Array.length levels - 1) 0 in
  let e = t.heads.(b) in
  let next = t.cells.(e) in
  t.heads.(b) <- next;
  if next < 0 then unmark levels 0 b;
  t.cells.(e) <- t.free;
  t.free <- e;
  t.len <- t.len - 1;
  t.cells.(e + 1)

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.iter (fun level -> Array.fill level 0 (Array.length level) 0) t.levels;
  t.free <- -1;
  t.top <- 0;
  t.len <- 0
