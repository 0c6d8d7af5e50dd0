(* An all-float record, so summing into it stores unboxed floats. *)
type sum = { mutable total : float }

type link_state = {
  meter : Meter.t;
  guaranteed_bps : sum;
  (* Declared rates of flows too recently admitted for the meter to have
     seen them; keyed by flow, value (rate, admit_epoch). *)
  unmeasured : (int, float * int) Hashtbl.t;
}

type flow_record = { request : Spec.request; path : int list }

(* A datagram flow reserves nothing on its path, so every one shares this
   record: releasing it touches no link. *)
let datagram_flow = { request = Spec.Datagram; path = [] }

type t = {
  mu : float;
  class_targets : float array;
  datagram_quota : float;
  meter_epochs : int;
  links : link_state array;
  flows : (int, flow_record) Hashtbl.t;
  mutable epoch_now : int;
  mutable rejected : int;
  mutable admissions : int;  (* cumulative grants, incl. datagram records *)
  mutable releases : int;  (* cumulative releases, incl. reset wipes *)
  (* [nu_hat]'s accumulator and the iteration step that adds into it, made
     once here so an admission test allocates neither. *)
  acc : sum;
  add_rate : int -> float * int -> unit;
  hats : float array;  (* the tested link's {!Meter.hats_into} *)
  admitted_cls : decision array;  (* [Admitted { cls = Some j }] at [j] *)
}

and decision = Admitted of { cls : int option } | Rejected of string

let admitted_none = Admitted { cls = None }

let create ~n_links ~mu_bps ~class_targets ?(datagram_quota = 0.1)
    ?(meter_epochs = 8) () =
  assert (n_links > 0 && mu_bps > 0.);
  let k = Array.length class_targets in
  assert (k > 0);
  for i = 1 to k - 1 do
    if class_targets.(i) <= class_targets.(i - 1) then
      invalid_arg "Controller.create: class targets must be increasing"
  done;
  let acc = { total = 0. } in
  {
    mu = mu_bps;
    class_targets;
    datagram_quota;
    meter_epochs;
    links =
      Array.init n_links (fun _ ->
          {
            meter = Meter.create ~n_classes:k ~epochs:meter_epochs ();
            guaranteed_bps = { total = 0. };
            unmeasured = Hashtbl.create 8;
          });
    flows = Hashtbl.create 32;
    epoch_now = 0;
    rejected = 0;
    admissions = 0;
    releases = 0;
    acc;
    add_rate = (fun _ (rate, _) -> acc.total <- acc.total +. rate);
    hats = Array.make (k + 1) 0.;
    admitted_cls = Array.init k (fun j -> Admitted { cls = Some j });
  }

let n_classes t = Array.length t.class_targets
let meter t ~link = t.links.(link).meter

let epoch t =
  t.epoch_now <- t.epoch_now + 1;
  Array.iter
    (fun ls ->
      Meter.rotate ls.meter;
      (* Flows the window has now fully observed stop being double-counted
         at their declared rate. *)
      let stale =
        Hashtbl.fold
          (fun flow (_, admitted_at) acc ->
            if t.epoch_now - admitted_at >= t.meter_epochs then flow :: acc
            else acc)
          ls.unmeasured []
      in
      List.iter (Hashtbl.remove ls.unmeasured) stale)
    t.links

(* Also leaves the link's class delay estimates in [t.hats].  This and
   the two criteria are inlined into [link_ok], so the estimates stay
   unboxed floats. *)
let[@inline] nu_hat t ls =
  t.acc.total <- 0.;
  Hashtbl.iter t.add_rate ls.unmeasured;
  Meter.hats_into ls.meter t.hats;
  t.hats.(0) +. (t.acc.total /. t.mu)

(* Criterion (1): real-time load incl. the newcomer stays under the quota
   complement.  Guaranteed reservations are counted at their full clock rate
   even when idle, since the network has promised that rate.  [nu] is the
   link's {!nu_hat}. *)
let[@inline] quota_ok t ls ~nu ~rate =
  let g = ls.guaranteed_bps.total /. t.mu in
  let nu = if nu >= g then nu else g (* [Stdlib.max], unboxed *) in
  (rate /. t.mu) +. nu < 1. -. t.datagram_quota

(* Criterion (2) at one link for a flow of burst [b] entering at priority
   [cls] ([-1] = guaranteed, above every class). *)
let[@inline] delay_ok t ~nu ~rate ~depth ~cls =
  let headroom = t.mu -. (nu *. t.mu) -. rate in
  (* A loop, not a local [let rec]: that would build its closure on every
     admission test. *)
  let ok = ref (headroom > 0.) and j = ref (Stdlib.max cls 0) in
  while !ok && !j < Array.length t.class_targets do
    let slack = t.class_targets.(!j) -. t.hats.(!j + 1) in
    ok := depth < slack *. headroom;
    incr j
  done;
  !ok

(* Both criteria at one link, estimating its load once. *)
let link_ok t ls ~rate ~depth ~cls =
  let nu = nu_hat t ls in
  quota_ok t ls ~nu ~rate && delay_ok t ~nu ~rate ~depth ~cls

(* Both criteria at every link of [path], in path order, stopping at the
   first that fails. *)
let rec path_ok t path ~rate ~depth ~cls =
  match path with
  | [] -> true
  | i :: rest ->
      link_ok t t.links.(i) ~rate ~depth ~cls
      && path_ok t rest ~rate ~depth ~cls

(* Book [flow] at every link of [path] at its declared [rate]; a guaranteed
   flow's rate is also reserved outright. *)
let rec reserve t path ~flow ~rate ~guaranteed =
  match path with
  | [] -> ()
  | i :: rest ->
      let ls = t.links.(i) in
      if guaranteed then
        ls.guaranteed_bps.total <- ls.guaranteed_bps.total +. rate;
      Hashtbl.replace ls.unmeasured flow (rate, t.epoch_now);
      reserve t rest ~flow ~rate ~guaranteed

(* Cheapest class whose summed per-switch targets still meet the flow's
   end-to-end delay target; -1 if none does. *)
let choose_class t ~target_delay ~hops =
  let j = ref (Array.length t.class_targets - 1) in
  while
    !j >= 0 && not (float_of_int hops *. t.class_targets.(!j) <= target_delay)
  do
    decr j
  done;
  !j

(* Guards each log line: with logging off a decision allocates neither
   [Logs.info]'s [Some src] nor its message closure. *)
let log_enabled () = Ispn_util.Log.enabled Ispn_util.Log.admission Logs.Info

let reject t ~flow reason =
  t.rejected <- t.rejected + 1;
  if log_enabled () then
    Logs.info ~src:Ispn_util.Log.admission (fun m ->
        m "flow %d rejected: %s" flow reason);
  Rejected reason

(* The burst a guaranteed flow is tested with: one packet. *)
let packet_depth = float_of_int Ispn_util.Units.packet_bits

let request t ~flow ~path request =
  if Hashtbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Controller.request: flow %d already admitted" flow);
  match request with
  | Spec.Datagram ->
      Hashtbl.replace t.flows flow datagram_flow;
      t.admissions <- t.admissions + 1;
      admitted_none
  | Spec.Guaranteed { clock_rate_bps = r } ->
      if path = [] then invalid_arg "Controller.request: empty path";
      if not (path_ok t path ~rate:r ~depth:packet_depth ~cls:(-1)) then
        reject t ~flow "guaranteed: insufficient capacity on path"
      else begin
        reserve t path ~flow ~rate:r ~guaranteed:true;
        Hashtbl.replace t.flows flow { request; path };
        t.admissions <- t.admissions + 1;
        if log_enabled () then
          Logs.info ~src:Ispn_util.Log.admission (fun m ->
              m "flow %d admitted (guaranteed %.0f bps)" flow r);
        admitted_none
      end
  | Spec.Predicted { bucket; target_delay; _ } ->
      if path = [] then invalid_arg "Controller.request: empty path";
      let cls = choose_class t ~target_delay ~hops:(List.length path) in
      if cls < 0 then
        reject t ~flow "predicted: delay target tighter than class 0"
      else
        let r = bucket.Spec.rate_bps and b = bucket.Spec.depth_bits in
        if path_ok t path ~rate:r ~depth:b ~cls then begin
          reserve t path ~flow ~rate:r ~guaranteed:false;
          Hashtbl.replace t.flows flow { request; path };
          t.admissions <- t.admissions + 1;
          if log_enabled () then
            Logs.info ~src:Ispn_util.Log.admission (fun m ->
                m "flow %d admitted (predicted class %d)" flow cls);
          t.admitted_cls.(cls)
        end
        else reject t ~flow "predicted: would violate a class delay target"

(* Undo [reserve] at every link of [path]. *)
let rec unreserve t path ~flow request =
  match path with
  | [] -> ()
  | i :: rest ->
      let ls = t.links.(i) in
      Hashtbl.remove ls.unmeasured flow;
      (match request with
      | Spec.Guaranteed { clock_rate_bps = r } ->
          ls.guaranteed_bps.total <- ls.guaranteed_bps.total -. r
      | Spec.Predicted _ | Spec.Datagram -> ());
      unreserve t rest ~flow request

let release t ~flow =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | { request; path; _ } ->
      Hashtbl.remove t.flows flow;
      t.releases <- t.releases + 1;
      unreserve t path ~flow request

let mem t ~flow = Hashtbl.mem t.flows flow

let reset t =
  (* A wiped book is so many releases as far as leak accounting goes: a
     crash must not leave admissions = releases + live violated. *)
  t.releases <- t.releases + Hashtbl.length t.flows;
  Hashtbl.reset t.flows;
  Array.iter
    (fun ls ->
      ls.guaranteed_bps.total <- 0.;
      Hashtbl.reset ls.unmeasured)
    t.links

let guaranteed_reserved_bps t ~link = t.links.(link).guaranteed_bps.total

let admitted t =
  Hashtbl.fold
    (fun _ fr acc -> if Spec.is_realtime fr.request then acc + 1 else acc)
    t.flows 0

let rejected t = t.rejected
let admissions t = t.admissions
let releases t = t.releases
let live t = Hashtbl.length t.flows

let live_flows t =
  List.sort compare (Hashtbl.fold (fun flow _ acc -> flow :: acc) t.flows [])
