(* Events live in a struct-of-arrays arena (time, action, generation) and
   are named by int handles — index in the low bits, the slot's generation
   above — so scheduling allocates nothing and a stale handle can never
   touch a recycled slot.  The pending set is an [Ispn_util.Wheel] of
   handles keyed by firing time: O(1) insert, exact (time, seq) drain
   order.  Cancellation is lazy, as before: it bumps the slot's
   generation, and the wheel entry is discarded (and the slot recycled)
   when it surfaces. *)

type handle = int

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1

type stats = { events_fired : int; cancels_skipped : int }

let nop () = ()

(* Engine times are seconds; 1 us level-0 slots put the common event
   spacings (packet transmissions, propagation delays) within one or two
   cascades of the cursor.  Ordering is exact regardless (Wheel contract). *)
let wheel_tick = 1e-6

(* The clock sits in its own all-float record so updating it stores an
   unboxed float; as a mutable float field of the mixed record below every
   [fire] would box a fresh float. *)
type clock = { mutable v : float }

type t = {
  clock : clock;
  mutable live : int;
  mutable live_hwm : int;
  mutable fired : int;
  mutable skipped : int;
  wheel : handle Ispn_util.Wheel.t;
  (* Event arena. *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_len : int;
  mutable used : int; (* slots handed out at least once *)
  (* Batch-fire buffers for [run]: one [Wheel.pop_batch] per occupied
     tick lands here, then the firing loop walks them without re-entering
     the wheel between events. *)
  bkeys : float array;
  bseqs : int array;
  bhs : int array;
}

let batch_cap = 128

let create () =
  {
    clock = { v = 0. };
    live = 0;
    live_hwm = 0;
    fired = 0;
    skipped = 0;
    wheel = Ispn_util.Wheel.create ~capacity:64 ~tick:wheel_tick ~dummy:(-1) ();
    times = Array.make 64 0.;
    actions = Array.make 64 nop;
    gens = Array.make 64 0;
    free = Array.make 64 0;
    free_len = 0;
    used = 0;
    bkeys = Array.make batch_cap 0.;
    bseqs = Array.make batch_cap 0;
    bhs = Array.make batch_cap (-1);
  }

let stats t = { events_fired = t.fired; cancels_skipped = t.skipped }

let now t = t.clock.v
let clock t = t.clock

let grow_arena t =
  let old = Array.length t.times in
  let cap = 2 * old in
  if cap > idx_mask then failwith "Engine: event arena exceeds handle range";
  let times = Array.make cap 0. in
  let actions = Array.make cap nop in
  let gens = Array.make cap 0 in
  let free = Array.make cap 0 in
  Array.blit t.times 0 times 0 old;
  Array.blit t.actions 0 actions 0 old;
  Array.blit t.gens 0 gens 0 old;
  Array.blit t.free 0 free 0 t.free_len;
  t.times <- times;
  t.actions <- actions;
  t.gens <- gens;
  t.free <- free

let alloc_slot t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free.(t.free_len)
  end
  else begin
    if t.used = Array.length t.times then grow_arena t;
    let i = t.used in
    t.used <- i + 1;
    i
  end

(* The arena write goes through [t.times] and the wheel reads the key
   back out of that same array ([push_from]), so the event time never
   crosses a call boundary as a bare float — which would box it. *)
let finish_schedule t idx action =
  t.actions.(idx) <- action;
  t.live <- t.live + 1;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  let h = (t.gens.(idx) lsl idx_bits) lor idx in
  Ispn_util.Wheel.push_from t.wheel t.times idx h;
  h

let schedule t ~at action =
  if at < t.clock.v then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g is before now=%g" at t.clock.v);
  let idx = alloc_slot t in
  t.times.(idx) <- at;
  finish_schedule t idx action

let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  (* Not [schedule ~at:(now +. delay)]: the sum is stored straight into
     the arena so it stays unboxed, and [delay >= 0] already implies the
     time is not in the past. *)
  let idx = alloc_slot t in
  t.times.(idx) <- t.clock.v +. delay;
  finish_schedule t idx action

(* Negative, so [cancel] never mistakes it for a slot's handle. *)
let no_handle = -1

(* A live slot's generation matches its outstanding handle; firing or
   cancelling bumps it, so the second of the two (and any later cancel)
   sees a mismatch and does nothing. *)
let cancel t h =
  let idx = h land idx_mask in
  if h >= 0 && t.gens.(idx) lsl idx_bits lor idx = h then begin
    t.gens.(idx) <- t.gens.(idx) + 1;
    t.actions.(idx) <- nop;
    t.live <- t.live - 1
  end

let pending t = t.live
let heap_depth_hwm t = t.live_hwm

let register_metrics t m =
  let module M = Ispn_obs.Metrics in
  M.register_int m "engine.events_fired" (fun () -> t.fired);
  M.register_int m "engine.cancels_skipped" (fun () -> t.skipped);
  M.register_int m "engine.heap_depth_hwm" (fun () -> t.live_hwm);
  M.register_int m "engine.pending" (fun () -> t.live)

let attach_series t s =
  let interval = Ispn_obs.Series.interval s in
  let rec tick () =
    Ispn_obs.Series.sample s ~now:t.clock.v;
    ignore (schedule_after t ~delay:interval tick)
  in
  tick ()

let release t idx =
  t.free.(t.free_len) <- idx;
  t.free_len <- t.free_len + 1

let fire t h =
  let idx = h land idx_mask in
  if t.gens.(idx) lsl idx_bits lor idx = h then begin
    let action = t.actions.(idx) in
    t.clock.v <- t.times.(idx);
    t.gens.(idx) <- t.gens.(idx) + 1;
    t.actions.(idx) <- nop;
    release t idx;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    action ()
  end
  else begin
    (* Cancelled while queued; reclaim the slot now that it surfaced. *)
    release t idx;
    t.skipped <- t.skipped + 1
  end

let step t =
  if Ispn_util.Wheel.is_empty t.wheel then false
  else begin
    fire t (Ispn_util.Wheel.pop_exn t.wheel);
    true
  end

(* The drain hot path: one [pop_batch] per occupied tick pulls that
   tick's whole cross-section into the engine's buffers, then the firing
   loop walks them without re-entering the wheel between events.  An
   action may schedule into the span the buffered tail still covers; the
   wheel's push guard is armed with the batch's last key, and on a hit
   the unfired tail is spliced back (original seqs, so FIFO ties against
   the interloper survive) and re-popped in merged order.  Sub-tick
   delays are the only way to trigger this, so the splice path stays
   cold.  All buffer traffic is array-to-array — nothing boxes. *)
let run t ~until =
  let wheel = t.wheel in
  let g = Ispn_util.Wheel.guard wheel in
  let bkeys = t.bkeys and bseqs = t.bseqs and bhs = t.bhs in
  let n =
    ref (Ispn_util.Wheel.pop_batch wheel ~until ~keys:bkeys ~seqs:bseqs bhs)
  in
  while !n > 0 do
    let last = !n - 1 in
    g.(0) <- bkeys.(last);
    let j = ref 0 in
    while !j < last do
      fire t bhs.(!j);
      incr j;
      if Ispn_util.Wheel.guard_hit wheel then begin
        (* An action scheduled under a still-buffered key: return the
           unfired tail and let the next pop re-merge. *)
        Ispn_util.Wheel.guard_clear wheel;
        for k = !j to last do
          Ispn_util.Wheel.reinsert wheel ~key:bkeys.(k) ~seq:bseqs.(k)
            bhs.(k)
        done;
        j := !n (* tail returned; leave the firing loop *)
      end
    done;
    if !j = last then begin
      (* Last element: nothing buffered behind it, disarm before firing
         so its action's pushes can't trip the guard. *)
      g.(0) <- neg_infinity;
      fire t bhs.(last)
    end;
    n := Ispn_util.Wheel.pop_batch wheel ~until ~keys:bkeys ~seqs:bseqs bhs
  done;
  g.(0) <- neg_infinity;
  if until > t.clock.v then t.clock.v <- until

let run_until_idle t ~max_events =
  let rec loop n =
    if n > max_events then failwith "Engine.run_until_idle: event budget blown"
    else if step t then loop (n + 1)
  in
  loop 0
