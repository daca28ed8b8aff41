let bits = 10
let mask = (1 lsl bits) - 1

type 'a t = {
  mutable chunks : 'a array array;  (* the spine: chunk [c] holds entries
                                       [c * 1024 ..], unused slots [||] *)
  mutable length : int;
  stride : int;
  fill : 'a;
}

let create ?(stride = 1) fill = { chunks = [||]; length = 0; stride; fill }
let length t = t.length

let extend t =
  let i = t.length in
  if i land mask = 0 then begin
    let c = i lsr bits in
    if c = Array.length t.chunks then begin
      let chunks = Array.make (max 4 (2 * c)) [||] in
      Array.blit t.chunks 0 chunks 0 c;
      t.chunks <- chunks
    end;
    t.chunks.(c) <- Array.make ((mask + 1) * t.stride) t.fill
  end;
  t.length <- i + 1;
  i

let get t i = t.chunks.(i lsr bits).((i land mask) * t.stride)
let set t i x = t.chunks.(i lsr bits).((i land mask) * t.stride) <- x
let field t i f = t.chunks.(i lsr bits).(((i land mask) * t.stride) + f)

let set_field t i f x =
  t.chunks.(i lsr bits).(((i land mask) * t.stride) + f) <- x
