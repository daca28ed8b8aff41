type t = {
  epoch : float;
  mutable last_us : float;  (* monotone clamp *)
}

let create () = { epoch = Unix.gettimeofday (); last_us = 0. }

let now_us t =
  let us = (Unix.gettimeofday () -. t.epoch) *. 1e6 in
  if us > t.last_us then begin
    t.last_us <- us;
    us
  end
  else t.last_us

let elapsed_s t = now_us t /. 1e6
