(* The float state lives in its own all-float record so [advance] — run on
   every enqueue and dequeue of WFQ and CSZ — updates it in place without
   boxing (a mixed record would allocate a float box per store). *)
type state = {
  mutable v : float;
  mutable last_update : float;
  mutable active_weight : float;
}

type t = {
  link_rate_bps : float;
  s : state;
  mutable active_count : int;
  mutable period : int;  (* busy periods completed so far *)
}

let create ~link_rate_bps =
  assert (link_rate_bps > 0.);
  {
    link_rate_bps;
    s = { v = 0.; last_update = 0.; active_weight = 0. };
    active_count = 0;
    period = 0;
  }

let[@inline] advance t ~now =
  let s = t.s in
  if now > s.last_update then begin
    if s.active_weight > 0. then
      s.v <- s.v +. ((now -. s.last_update) *. t.link_rate_bps /. s.active_weight);
    s.last_update <- now
  end

let v t = t.s.v
let state t = t.s
let period t = t.period

(* End of the busy period: restart the virtual clock.  Per-flow finish tags
   stamped with an older period now read as zero, so nothing proportional
   to the number of flows happens here. *)
let end_period t =
  t.s.v <- 0.;
  t.s.active_weight <- 0.;
  t.period <- t.period + 1

let[@inline] flow_activated t ~weight =
  assert (weight > 0.);
  t.s.active_weight <- t.s.active_weight +. weight;
  t.active_count <- t.active_count + 1

let flow_activated_from t (a : float array) i =
  flow_activated t ~weight:a.(i)

let[@inline] flow_deactivated t ~now ~weight =
  advance t ~now;
  t.s.active_weight <- t.s.active_weight -. weight;
  t.active_count <- t.active_count - 1;
  assert (t.active_count >= 0);
  if t.active_count = 0 then end_period t

let flow_deactivated_from t ~now (a : float array) i =
  flow_deactivated t ~now ~weight:a.(i)

(* Weights are clock rates in bits/s (>= 1 in every configuration), so
   anything this small is float drift, not a real remaining reservation. *)
let weight_epsilon = 1e-6

let adjust_active t ~now ~delta =
  advance t ~now;
  let w = t.s.active_weight +. delta in
  if w > weight_epsilon then t.s.active_weight <- w
  else
    (* Renegotiation removed the last active weight (or drift left a
       sub-epsilon residue): end the busy period exactly as
       [flow_deactivated] does, but keep [active_count] — the flows
       themselves are still queued and will deactivate normally. *)
    end_period t

let active_weight t = t.s.active_weight
