(* The 64-bit state sits unboxed in an 8-byte buffer.  As an [int64]
   record field it would point to a boxed Int64, so every draw would
   allocate a new one; here a draw is a load, arithmetic on an unboxed
   local and a store, and only the caller-visible result is boxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 seed;
  g

(* Mixing function from Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_raw g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  s

let[@inline] int64 g = mix64 (next_raw g)
let split g = create ~seed:(int64 g)

let float g =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (int64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int g ~bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for the small
     bounds used in simulation (< 2^20 against a 62-bit range).  Shift by two
     so the value fits OCaml's 63-bit native int as a non-negative number. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 g) 2) in
  v mod bound

let bool g = Int64.logand (int64 g) 1L = 1L
