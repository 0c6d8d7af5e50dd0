(* All-float record, so [refill] and [conforms] — once per policed
   packet — store [tokens] and [last_refill] unboxed. *)
type t = {
  rate_bps : float;
  depth_bits : float;
  mutable tokens : float;
  mutable last_refill : float;
}

let create ~rate_bps ~depth_bits ?initial_bits () =
  assert (rate_bps > 0. && depth_bits > 0.);
  let initial = Option.value initial_bits ~default:depth_bits in
  { rate_bps; depth_bits; tokens = initial; last_refill = 0. }

let rate_bps t = t.rate_bps
let depth_bits t = t.depth_bits

(* [Stdlib.min] on floats is a C call on boxed arguments; this returns the
   same bits. *)
let fmin (a : float) b = if a <= b then a else b

(* Inlined, like [conforms], so the policer's unboxed clock reading stays
   unboxed. *)
let[@inline] refill t ~now =
  assert (now >= t.last_refill -. 1e-9);
  if now > t.last_refill then begin
    t.tokens <-
      fmin t.depth_bits (t.tokens +. ((now -. t.last_refill) *. t.rate_bps));
    t.last_refill <- now
  end

let[@inline] conforms t ~now ~bits =
  refill t ~now;
  let need = float_of_int bits in
  if t.tokens >= need -. 1e-9 then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let level_bits t ~now =
  refill t ~now;
  t.tokens

type mode = Drop | Pass

type policer = {
  engine : Ispn_sim.Engine.t;
  bucket : t;
  mode : mode;
  next : Ispn_sim.Packet.t -> unit;
  mutable offered : int;
  mutable dropped : int;
  mutable violations : int;
}

let policer ~engine ~bucket ~mode ~next =
  { engine; bucket; mode; next; offered = 0; dropped = 0; violations = 0 }

let police p pkt =
  p.offered <- p.offered + 1;
  let now = (Ispn_sim.Engine.clock p.engine).Ispn_sim.Engine.v in
  if conforms p.bucket ~now ~bits:(Ispn_sim.Packet.size_bits pkt) then
    p.next pkt
  else begin
    p.violations <- p.violations + 1;
    match p.mode with
    | Drop ->
        p.dropped <- p.dropped + 1;
        (* Policer drop is terminal: the handle dies here. *)
        Ispn_sim.Packet.free pkt
    | Pass -> p.next pkt
  end

let admit_fn p = police p
let offered p = p.offered
let dropped p = p.dropped
let violations p = p.violations
