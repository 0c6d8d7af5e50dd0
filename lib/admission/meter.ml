type t = {
  n_classes : int;
  epochs : int;
  util : float array;  (* max utilization sample per epoch slot *)
  delay : float array array;  (* [epoch slot][class] max delay *)
  mutable cursor : int;
}

let create ~n_classes ?(epochs = 8) () =
  assert (n_classes > 0 && epochs > 0);
  {
    n_classes;
    epochs;
    util = Array.make epochs 0.;
    delay = Array.init epochs (fun _ -> Array.make n_classes 0.);
    cursor = 0;
  }

(* Both keep the slot unless [slot >= x], [Stdlib.max]'s own test, so
   NaN and signed zeros resolve as with it; storing [x] only when it wins
   keeps the stored float unboxed (a [max] expression would box the
   slot's value to return it). *)
let note_util t u = if not (t.util.(t.cursor) >= u) then t.util.(t.cursor) <- u

let note_delay t ~cls d =
  if cls < 0 || cls >= t.n_classes then
    invalid_arg "Meter.note_delay: class out of range";
  let row = t.delay.(t.cursor) in
  if not (row.(cls) >= d) then row.(cls) <- d

let rotate t =
  t.cursor <- (t.cursor + 1) mod t.epochs;
  t.util.(t.cursor) <- 0.;
  Array.fill t.delay.(t.cursor) 0 t.n_classes 0.

(* The window maxima loop over a local float, which stays unboxed (a fold
   would box its accumulator on every step).  Keeping [m] unless [m >= x]
   is [Stdlib.max]'s own test, so NaN and signed zeros resolve as with it. *)
let[@inline] util_hat t =
  let m = ref 0. in
  for i = 0 to t.epochs - 1 do
    let x = t.util.(i) in
    if not (!m >= x) then m := x
  done;
  !m

let[@inline] delay_hat t ~cls =
  if cls < 0 || cls >= t.n_classes then
    invalid_arg "Meter.delay_hat: class out of range";
  let m = ref 0. in
  for i = 0 to t.epochs - 1 do
    let x = t.delay.(i).(cls) in
    if not (!m >= x) then m := x
  done;
  !m

(* Inlines both maxima, so the floats reach [dst] unboxed. *)
let hats_into t dst =
  dst.(0) <- util_hat t;
  for cls = 0 to t.n_classes - 1 do
    dst.(cls + 1) <- delay_hat t ~cls
  done

let observed_classes t = t.n_classes
