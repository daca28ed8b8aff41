(* Layout in the interface.  Invariants: bucket [b] is nonempty iff bit
   [b land 31] of [bits.(b lsr 5)] is set; [bits.(w) <> 0] iff bit
   [w land 31] of [summary.(w lsr 5)] is set; no summary word below [low]
   is nonzero.  A push below [low] pulls it back, and [pop] steps it over
   zero summary words, each a wholly empty run of 1024 buckets. *)

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
  mutable bits : int array;  (* bit [b] of word [w]: bucket [32w + b] is nonempty *)
  mutable summary : int array;  (* bit [j] of word [s]: [bits.(32s + j) <> 0] *)
  mutable low : int;  (* no nonzero summary word strictly below this *)
  mutable cells : int array;
      (* entry [e] is the pair [cells.(e)] = next entry of its bucket or
         -1, [cells.(e + 1)] = value *)
  mutable free : int;  (* popped entries, chained through their next field *)
  mutable top : int;  (* [cells.(top ..)] unused since creation or [clear] *)
  mutable len : int;
}

let summary_words n_words = (n_words + word_mask) lsr word_bits

let create () =
  {
    heads = Array.make 32 (-1);
    bits = [| 0 |];
    summary = [| 0 |];
    low = 0;
    cells = Array.make 32 0;
    free = -1;
    top = 0;
    len = 0;
  }

let grow t want =
  let cap = Array.length t.heads in
  let cap' = ref (2 * cap) in
  while want >= !cap' do
    cap' := 2 * !cap'
  done;
  let heads = Array.make !cap' (-1) in
  Array.blit t.heads 0 heads 0 cap;
  t.heads <- heads;
  let n_words = !cap' lsr word_bits in
  let bits = Array.make n_words 0 in
  Array.blit t.bits 0 bits 0 (Array.length t.bits);
  t.bits <- bits;
  let summary = Array.make (summary_words n_words) 0 in
  Array.blit t.summary 0 summary 0 (Array.length t.summary);
  t.summary <- summary

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

let push t ~prio v =
  let prio = if prio < 0 then 0 else prio in
  if prio >= Array.length t.heads then grow t prio;
  let e = alloc t in
  let head = t.heads.(prio) in
  t.cells.(e) <- head;
  t.cells.(e + 1) <- v;
  t.heads.(prio) <- e;
  if head < 0 then begin
    let w = prio lsr word_bits in
    let word = t.bits.(w) in
    t.bits.(w) <- word lor (1 lsl (prio land word_mask));
    if word = 0 then begin
      let s = w lsr word_bits in
      t.summary.(s) <- t.summary.(s) lor (1 lsl (w land word_mask));
      if s < t.low then t.low <- s
    end
  end;
  t.len <- t.len + 1

let is_empty t = t.len = 0
let length t = t.len

let pop t =
  if t.len = 0 then invalid_arg "Pqueue.pop: empty";
  let s = ref t.low in
  while t.summary.(!s) = 0 do
    incr s
  done;
  let s = !s in
  t.low <- s;
  let sword = t.summary.(s) in
  let w = (s lsl word_bits) lor lowest_bit sword in
  let word = t.bits.(w) in
  let b = (w lsl word_bits) lor lowest_bit word in
  let e = t.heads.(b) in
  let next = t.cells.(e) in
  t.heads.(b) <- next;
  if next < 0 then begin
    (* [b] and [w] hold the lowest set bits of their words *)
    let word = word land (word - 1) in
    t.bits.(w) <- word;
    if word = 0 then t.summary.(s) <- sword land (sword - 1)
  end;
  t.cells.(e) <- t.free;
  t.free <- e;
  t.len <- t.len - 1;
  t.cells.(e + 1)

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.bits 0 (Array.length t.bits) 0;
  Array.fill t.summary 0 (Array.length t.summary) 0;
  t.low <- 0;
  t.free <- -1;
  t.top <- 0;
  t.len <- 0
