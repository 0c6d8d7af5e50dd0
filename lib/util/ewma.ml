(* All-float record: OCaml stores it flat, so [update] writes both fields
   in place without boxing — it runs once per packet on the FIFO+ and CSZ
   dequeue paths.  [n] counts observations; float precision is exact far
   beyond any simulation length. *)
type t = { gain : float; mutable avg : float; mutable n : float }

let create ?(init = 0.) ~gain () =
  assert (gain > 0. && gain <= 1.);
  { gain; avg = init; n = 0. }

let[@inline] update t x =
  if t.n = 0. then t.avg <- x
  else t.avg <- t.avg +. (t.gain *. (x -. t.avg));
  t.n <- t.n +. 1.

let update_from t (a : float array) i = update t a.(i)

let value t = t.avg
let count t = int_of_float t.n
