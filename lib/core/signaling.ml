open Ispn_sim
module Spec = Ispn_admission.Spec
module Bounds = Ispn_admission.Bounds
module Controller = Ispn_admission.Controller
module Meter = Ispn_admission.Meter
module Units = Ispn_util.Units
module Seqmap = Ispn_util.Seqmap
module Ring = Ispn_util.Ring

let control_packet_bits = 500
let ctrl_flow_base = 900_000

type established = {
  flow : int;
  cls : int option;
  advertised_bound : float option;
  setup_time : float;
  emit : Packet.t -> unit;
}

type level = Guaranteed | Predicted | Datagram

let level_name = function
  | Guaranteed -> "guaranteed"
  | Predicted -> "predicted"
  | Datagram -> "datagram"

let level_of = function
  | Spec.Guaranteed _ -> Guaranteed
  | Spec.Predicted _ -> Predicted
  | Spec.Datagram -> Datagram

(* What a session's timer does when it fires. *)
type phase =
  | Reserving  (* retransmit the setup message on the wire, or give up *)
  | Confirming  (* the confirmation is back: install and report *)
  | Refusing  (* the refusal is back: report [error] *)
  | Established  (* run a refresh epoch and re-arm *)

(* One session, from its setup request to its teardown.  While it is
   being set up, [granted] lists the links reserved so far, newest first —
   exactly what a rollback must undo — and [attempts] counts
   retransmissions of the setup message on the wire (reset when a hop
   answers), which [token] and [hop] name.

   Once established, the session is the flow's record: everything a
   post-crash re-setup needs (the path, the original request and the rung
   of the degradation ladder in force, [current]) and the soft-state
   machinery.  [token] then names the refresh leg on the wire (-1 =
   none), which a teardown must invalidate so a delayed refresh cannot
   resurrect state for a dead flow.  After departure, [hop] is the hop
   the in-band teardown releases next.  At most one setup or teardown
   message of a session is pending at a time (a retransmission first
   invalidates the token it replaces), so the message names the session
   and the session holds its hop.

   Every timed step — retransmission, the confirmation or refusal after
   the reverse trip, each refresh epoch — runs through the one [timer]
   action, built at setup and dispatched on [phase].  At most one of them
   is pending at a time; [timer_h] names it when it may be cancelled. *)
type session = {
  flow_id : int;
  ingress : int;
  egress : int;
  spec : Spec.request;
  local : Spec.request;  (* [spec] as each hop's controller sees it *)
  own_bucket : Spec.bucket option;
  mutable sink : Packet.t -> unit;
  mutable on_result : (established, string) result -> unit;
  started_at : float;
  path : int list;
  mutable current : Spec.request;
  mutable granted : int list;
  mutable ingress_cls : int option;  (* granted at the first hop *)
  mutable bound_acc : float;  (* summed class targets along the path *)
  mutable attempts : int;
  mutable phase : phase;
  mutable error : string;  (* what [Refusing] reports *)
  mutable token : int;
  mutable hop : int;
  mutable timer_h : Engine.handle;
  mutable timer : unit -> unit;
}

(* A refresh epoch walking the path, stamping each agent's soft state; if
   any hop has forgotten the flow, the pass ends in a full re-assert. *)
type refresh_ctx = {
  rf_flow : int;
  rf_ingress : int;
  rf_path : int list;
  rf_started : float;
  mutable rf_needs_reassert : bool;
}

(* Every control packet resolves its token to a typed pending message, so
   a stale or duplicated packet can never be replayed as the wrong message
   kind — a setup retransmission cannot masquerade as a refresh and
   re-stamp state a rollback just cleared.  An in-band teardown walks the
   departed session's path; it is deliberately fire-and-forget: a lost leg
   leaves the downstream state to the refresh timeout. *)
type pending =
  | P_setup of session  (* resume the setup at the session's [hop] *)
  | P_refresh of refresh_ctx * int  (* stamp this hop, forward *)
  | P_teardown of session  (* release the session's [hop], forward *)

(* Fills the token table's vacant slots. *)
let no_pending =
  P_refresh
    ( {
        rf_flow = -1;
        rf_ingress = -1;
        rf_path = [];
        rf_started = 0.;
        rf_needs_reassert = false;
      },
      -1 )

(* Marks a [paths] entry not resolved yet (compared physically). *)
let unresolved = Some [ -1 ]

type t = {
  fab : Fabric.t;
  clock : Engine.clock;
  (* The clock boxed, once per instant: one event's soft-state stamps,
     packet timestamps and start times share the box that each
     [Engine.now] would allocate anew. *)
  mutable now_box : float;
  class_targets : float array;
  reverse_hop_delay : float;
  setup_timeout : float;
  max_retries : int;
  refresh_interval : float option;
  lifetime : float;  (* refresh_interval * lifetime_epochs; 0 when off *)
  (* A refresh or teardown leg's token is reaped a fixed delay after it is
     sent ([lifetime], or [teardown_reap] for teardown legs), so reaps fire
     in the order they were scheduled: each kind queues its tokens in a
     ring and schedules one shared action, which takes the oldest.  A
     refresh reap also needs the token's flow. *)
  teardown_reap : float;
  refresh_reaps : int Ring.t;
  refresh_reap_flows : int Ring.t;
  mutable reap_refresh : unit -> unit;
  teardown_reaps : int Ring.t;
  mutable reap_teardown : unit -> unit;
  (* One single-link controller per link, owned by that link's upstream
     agent. *)
  ctrls : Controller.t array;
  (* [Fabric.path] by (ingress, egress), resolved on first use. *)
  paths : int list option array array;
  (* Per switch, the host-side injection every session entering there
     emits through. *)
  injects : (Packet.t -> unit) array;
  refusals : string array;  (* "refused at hop %d: " by hop index *)
  (* Per agent: flow -> time its reservation was last asserted here.  Only
     populated when soft state is on; the sweep expires stale entries. *)
  soft : (int, float) Hashtbl.t array;
  pending_msgs : pending Seqmap.t;  (* token -> message *)
  mutable next_token : int;
  in_flight : (int, unit) Hashtbl.t;  (* flows with a setup travelling *)
  flows : (int, session) Hashtbl.t;  (* established *)
  mutable established_count : int;
  mutable total_established : int;
  mutable refused_count : int;
  mutable teardowns : int;
  mutable control_packets : int;
  mutable retries : int;
  mutable abandoned : int;
  mutable crashes : int;
  mutable degraded : int;
  mutable reestablished : int;
  mutable reestablish_total : float;
  mutable refreshes : int;
  mutable refresh_packets : int;
  mutable teardown_packets : int;
  mutable expired : int;
}

let fabric t = t.fab
let established_count t = t.established_count
let total_established t = t.total_established
let refused_count t = t.refused_count
let teardown_count t = t.teardowns
let control_packets_sent t = t.control_packets
let retries t = t.retries
let abandoned_count t = t.abandoned
let crash_count t = t.crashes
let degraded_count t = t.degraded
let reestablished_count t = t.reestablished
let refresh_epochs t = t.refreshes
let refresh_packets_sent t = t.refresh_packets
let teardown_packets_sent t = t.teardown_packets
let expired_count t = t.expired
let soft_state_count t ~link = Hashtbl.length t.soft.(link)

let mean_reestablish_latency t =
  if t.reestablished = 0 then 0.
  else t.reestablish_total /. float_of_int t.reestablished

let controller t ~link = t.ctrls.(link)

let register_metrics t m ?(prefix = "signaling") () =
  let module M = Ispn_obs.Metrics in
  M.register_int m (prefix ^ ".established") (fun () -> t.established_count);
  M.register_int m (prefix ^ ".total_established") (fun () ->
      t.total_established);
  M.register_int m (prefix ^ ".refused") (fun () -> t.refused_count);
  M.register_int m (prefix ^ ".teardowns") (fun () -> t.teardowns);
  M.register_int m (prefix ^ ".control_packets") (fun () -> t.control_packets);
  M.register_int m (prefix ^ ".retries") (fun () -> t.retries);
  M.register_int m (prefix ^ ".abandoned") (fun () -> t.abandoned);
  M.register_int m (prefix ^ ".crashes") (fun () -> t.crashes);
  M.register_int m (prefix ^ ".degraded") (fun () -> t.degraded);
  M.register_int m (prefix ^ ".reestablished") (fun () -> t.reestablished);
  M.register_int m (prefix ^ ".refreshes") (fun () -> t.refreshes);
  M.register_int m (prefix ^ ".refresh_packets") (fun () -> t.refresh_packets);
  M.register_int m (prefix ^ ".teardown_packets") (fun () ->
      t.teardown_packets);
  M.register_int m (prefix ^ ".expired") (fun () -> t.expired);
  M.register_float m (prefix ^ ".reestablish_latency_mean") (fun () ->
      mean_reestablish_latency t)

let register_audit t audit =
  Array.iteri
    (fun link ctrl ->
      Ispn_check.Audit.register_flow_state audit
        ~label:(Printf.sprintf "agent %d" link)
        ~admitted:(fun () -> Controller.admissions ctrl)
        ~released:(fun () -> Controller.releases ctrl)
        ~live:(fun () -> Controller.live ctrl)
        ())
    t.ctrls;
  Ispn_check.Audit.register_flow_state audit ~label:"sessions"
    ~admitted:(fun () -> t.total_established)
    ~released:(fun () -> t.teardowns)
    ~live:(fun () -> t.established_count)
    ()

let service_level t ~flow =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> None
  | s -> Some (level_of s.current)

let engine t = Fabric.engine t.fab

let soft_state_on t = t.refresh_interval <> None

let now t =
  let c = t.clock.Engine.v in
  if c <> t.now_box then t.now_box <- c;
  t.now_box

(* The agent at [link] (re-)asserts [flow]'s reservation in its soft-state
   book; the sweep tears it down [lifetime] later unless re-stamped. *)
let stamp t ~link ~flow =
  if soft_state_on t then
    Hashtbl.replace t.soft.(link) flow (now t)

let unstamp t ~link ~flow =
  if soft_state_on t then Hashtbl.remove t.soft.(link) flow

let nop () = ()

let new_token t =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  token

let set_refresh_token t ~flow token =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s -> s.token <- token

let clear_refresh_token t ~flow token =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s -> if s.token = token then s.token <- -1

(* Unregister a guaranteed [flow] at one link; a datagram or predicted
   flow has nothing to remove there. *)
let remove_guaranteed sched ~flow =
  if Csz_sched.is_guaranteed sched ~flow then
    Csz_sched.remove_guaranteed sched ~flow

(* Drop every trace of [flow] at one hop: admission record, scheduler
   registration, soft-state stamp.  Unconditional and idempotent. *)
let wipe_hop t ~link ~flow =
  Controller.release t.ctrls.(link) ~flow;
  let sched = Fabric.sched t.fab ~link in
  Csz_sched.clear_predicted sched ~flow;
  remove_guaranteed sched ~flow;
  unstamp t ~link ~flow

(* Put one control packet on the wire over [over_link], injected at its
   upstream switch; the pre-installed control route carries it across
   exactly one hop, through the datagram class. *)
let send_ctrl t ~at_switch ~over_link token =
  t.control_packets <- t.control_packets + 1;
  let pkt =
    Packet.alloc
      ~flow:(ctrl_flow_base + over_link)
      ~seq:token ~size_bits:control_packet_bits ~kind:Packet.Data
      ~created:(now t)
  in
  Fabric.inject t.fab ~at_switch pkt

(* The per-hop admission request: the end-to-end delay target is split
   evenly over the hops so each local controller can pick a class for its
   own switch (the paper allows different levels per switch). *)
let local_of spec ~hops =
  match spec with
  | Spec.Predicted { bucket; target_delay; target_loss } ->
      Spec.Predicted
        {
          bucket;
          target_delay = target_delay /. float_of_int hops;
          target_loss;
        }
  | (Spec.Guaranteed _ | Spec.Datagram) as s -> s

(* Forward declaration dance: agents need [process] which needs [t]. *)
let rec process t token =
  match Seqmap.find t.pending_msgs token with
  | exception Not_found ->
      ()  (* stale, duplicated or retransmitted-over control packet *)
  | P_setup s ->
      Seqmap.remove t.pending_msgs token;
      if s.timer_h <> Engine.no_handle then begin
        Engine.cancel (engine t) s.timer_h;
        s.timer_h <- Engine.no_handle
      end;
      s.attempts <- 0;
      advance t s s.hop
  | P_refresh (rctx, hop) ->
      Seqmap.remove t.pending_msgs token;
      (* Only a still-established flow may be refreshed: a teardown racing
         this packet has already invalidated the token, but be safe. *)
      if Hashtbl.mem t.flows rctx.rf_flow then begin
        clear_refresh_token t ~flow:rctx.rf_flow token;
        refresh_hop t rctx hop
      end
  | P_teardown s ->
      Seqmap.remove t.pending_msgs token;
      teardown_hop t s s.hop

(* Try to reserve at [hop] (an index into s.path); on success forward the
   setup message over that hop's link, or confirm if past the last hop. *)
and advance t s hop =
  if hop >= List.length s.path then confirm t s
  else begin
    let link = List.nth s.path hop in
    let ctrl = t.ctrls.(link) in
    match Controller.request ctrl ~flow:s.flow_id ~path:[ 0 ] s.local with
    | Controller.Rejected reason -> refuse t s hop reason
    | Controller.Admitted { cls } ->
        let sched = Fabric.sched t.fab ~link in
        (match (s.spec, cls) with
        | Spec.Guaranteed { clock_rate_bps }, _ ->
            Csz_sched.add_guaranteed sched ~flow:s.flow_id ~clock_rate_bps
        | Spec.Predicted _, Some c ->
            Csz_sched.set_predicted sched ~flow:s.flow_id ~cls:c;
            s.bound_acc <- s.bound_acc +. t.class_targets.(c)
        | Spec.Predicted _, None | Spec.Datagram, _ -> ());
        stamp t ~link ~flow:s.flow_id;
        if hop = 0 then s.ingress_cls <- cls;
        s.granted <- link :: s.granted;
        forward t s (hop + 1)
  end

(* Put the setup message on the wire toward the next agent and arm its
   retransmission timer.  [hop] is the next hop to reserve; the message
   travels the link just reserved (the newest entry of [granted]). *)
and forward t s hop =
  let sent_over =
    match s.granted with link :: _ -> link | [] -> assert false
  in
  let token = new_token t in
  s.token <- token;
  s.hop <- hop;
  Seqmap.replace t.pending_msgs token (P_setup s);
  send_ctrl t
    ~at_switch:(s.ingress + List.length s.granted - 1)
    ~over_link:sent_over token;
  (* [2. ** 0.] is exactly 1., so a first send waits exactly
     [setup_timeout]; only retransmissions compute (and box) a delay. *)
  let delay =
    if s.attempts = 0 then t.setup_timeout
    else t.setup_timeout *. (2. ** float_of_int s.attempts)
  in
  s.timer_h <- Engine.schedule_after (engine t) ~delay s.timer

(* The message (or the wire under it) was lost: retransmit with exponential
   backoff, invalidating the old token first so a copy that was merely
   delayed cannot double-reserve when it finally lands. *)
and on_timeout t s =
  let token = s.token and hop = s.hop in
  if Seqmap.mem t.pending_msgs token then begin
    Seqmap.remove t.pending_msgs token;
    s.timer_h <- Engine.no_handle;
    if s.attempts >= t.max_retries then begin
      t.abandoned <- t.abandoned + 1;
      fail t s ~failed_hop:(hop - 1)
        (Printf.sprintf "setup timed out at hop %d after %d attempts" hop
           (s.attempts + 1))
    end
    else begin
      s.attempts <- s.attempts + 1;
      t.retries <- t.retries + 1;
      forward t s hop
    end
  end

(* The session's timer: what it does depends on where the session is. *)
and on_timer t s =
  match s.phase with
  | Reserving -> on_timeout t s
  | Confirming -> establish t s
  | Refusing ->
      Hashtbl.remove t.in_flight s.flow_id;
      t.refused_count <- t.refused_count + 1;
      s.on_result (Error s.error)
  | Established ->
      if Hashtbl.mem t.flows s.flow_id then begin
        refresh_now t ~flow:s.flow_id;
        arm_refresh t ~flow:s.flow_id
      end

(* Every hop granted: the confirmation takes the reverse trip. *)
and confirm t s =
  let delay = t.reverse_hop_delay *. float_of_int (List.length s.path) in
  s.phase <- Confirming;
  ignore (Engine.schedule_after (engine t) ~delay s.timer)

(* The confirmation reached the ingress: the session becomes the flow's
   record, its data route is installed and the requester learns how to
   emit. *)
and establish t s =
  Hashtbl.remove t.in_flight s.flow_id;
  s.phase <- Established;
  s.token <- -1;
  Hashtbl.replace t.flows s.flow_id s;
  t.established_count <- t.established_count + 1;
  t.total_established <- t.total_established + 1;
  arm_refresh t ~flow:s.flow_id;
  Fabric.install_flow t.fab ~flow:s.flow_id ~ingress:s.ingress
    ~egress:s.egress ~sink:s.sink;
  let inject = t.injects.(s.ingress) in
  let emit, cls, bound =
    match s.spec with
    | Spec.Guaranteed { clock_rate_bps } ->
        let bound =
          match s.own_bucket with
          | None -> None
          | Some bucket ->
              Some
                (Bounds.pg_bound ~bucket ~clock_rate_bps
                   ~hops:(List.length s.path) ())
        in
        (inject, None, bound)
    | Spec.Predicted { bucket; _ } ->
        let tb =
          Ispn_traffic.Token_bucket.create ~rate_bps:bucket.Spec.rate_bps
            ~depth_bits:bucket.Spec.depth_bits ()
        in
        let policer =
          Ispn_traffic.Token_bucket.policer ~engine:(engine t) ~bucket:tb
            ~mode:Ispn_traffic.Token_bucket.Drop ~next:inject
        in
        ( Ispn_traffic.Token_bucket.admit_fn policer,
          s.ingress_cls,
          Some s.bound_acc )
    | Spec.Datagram -> (inject, None, None)
  in
  (* A long-lived flow need not keep the requester's callbacks alive. *)
  let on_result = s.on_result in
  s.on_result <- ignore;
  s.sink <- ignore;
  on_result
    (Ok
       {
         flow = s.flow_id;
         cls;
         advertised_bound = bound;
         setup_time = t.clock.Engine.v -. s.started_at;
         emit;
       })

(* The bytes of [Printf.sprintf "refused at hop %d: %s"] from a prefix
   made once per hop: a refusal is common under load, and formatting costs
   several times the message. *)
and refuse t s failed_hop reason =
  fail t s ~failed_hop (t.refusals.(failed_hop) ^ reason)

(* Roll back every reservation made so far, then report after the reverse
   trip. *)
and fail t s ~failed_hop msg =
  release_granted t ~flow:s.flow_id s.granted;
  s.granted <- [];
  let delay = t.reverse_hop_delay *. float_of_int (failed_hop + 1) in
  s.error <- msg;
  s.phase <- Refusing;
  ignore (Engine.schedule_after (engine t) ~delay s.timer)

and release_granted t ~flow granted =
  match granted with
  | [] -> ()
  | link :: rest ->
      wipe_hop t ~link ~flow;
      release_granted t ~flow rest

(* {2 Soft state: refresh, expiry, in-band teardown} *)

(* Each established flow runs a PATH/RESV-style refresh pump: every
   [refresh_interval] the ingress agent re-stamps its own hop and sends a
   refresh message down the path, each agent re-stamping as it passes.  A
   hop that has forgotten the flow (crash, expiry during a partition)
   flips [rf_needs_reassert]; the pass then ends in the same idempotent
   re-assert used after a crash, restoring — or degrading — the
   reservation.  Refresh messages are fire-and-forget: retransmitting them
   is pointless because the next epoch repeats them anyway. *)
and arm_refresh t ~flow =
  match t.refresh_interval with
  | None -> ()
  | Some ri -> (
      match Hashtbl.find t.flows flow with
      | exception Not_found -> ()
      | s -> s.timer_h <- Engine.schedule_after (engine t) ~delay:ri s.timer)

and refresh_now t ~flow =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s ->
      t.refreshes <- t.refreshes + 1;
      (* Supersede any leg of the previous epoch still on the wire. *)
      if s.token >= 0 then begin
        Seqmap.remove t.pending_msgs s.token;
        s.token <- -1
      end;
      let rctx =
        {
          rf_flow = flow;
          rf_ingress = s.ingress;
          rf_path = s.path;
          rf_started = now t;
          rf_needs_reassert = false;
        }
      in
      refresh_hop t rctx 0

and refresh_hop t rctx hop =
  let link = List.nth rctx.rf_path hop in
  (if Controller.mem t.ctrls.(link) ~flow:rctx.rf_flow then
     stamp t ~link ~flow:rctx.rf_flow
   else rctx.rf_needs_reassert <- true);
  if hop + 1 < List.length rctx.rf_path then begin
    let token = new_token t in
    Seqmap.replace t.pending_msgs token (P_refresh (rctx, hop + 1));
    set_refresh_token t ~flow:rctx.rf_flow token;
    t.refresh_packets <- t.refresh_packets + 1;
    send_ctrl t ~at_switch:(rctx.rf_ingress + hop) ~over_link:link token;
    (* Reap a token whose packet died on the wire, so pending_msgs stays
       bounded under churn; by then the next epoch has superseded it. *)
    Ring.push t.refresh_reaps token;
    Ring.push t.refresh_reap_flows rctx.rf_flow;
    ignore (Engine.schedule_after (engine t) ~delay:t.lifetime t.reap_refresh)
  end
  else if rctx.rf_needs_reassert then
    resetup t ~flow:rctx.rf_flow ~crashed_at:rctx.rf_started

and teardown_hop t s hop =
  let link = List.nth s.path hop in
  wipe_hop t ~link ~flow:s.flow_id;
  if hop + 1 < List.length s.path then begin
    let token = new_token t in
    s.hop <- hop + 1;
    Seqmap.replace t.pending_msgs token (P_teardown s);
    t.teardown_packets <- t.teardown_packets + 1;
    send_ctrl t ~at_switch:(s.ingress + hop) ~over_link:link token;
    Ring.push t.teardown_reaps token;
    ignore
      (Engine.schedule_after (engine t) ~delay:t.teardown_reap t.reap_teardown)
  end

(* {2 Crash recovery} *)

(* Drop every trace of [flow] along its whole path — admission records and
   scheduler registrations alike.  Unconditional and idempotent, so it is
   safe whatever mix of surviving and freshly re-acquired state the flow
   has when a re-assertion pass fails halfway. *)
and release_everywhere t ~flow s =
  List.iter (fun link -> wipe_hop t ~link ~flow) s.path

and note_reestablished t ~crashed_at =
  t.reestablished <- t.reestablished + 1;
  t.reestablish_total <-
    t.reestablish_total +. (Engine.now (engine t) -. crashed_at)

(* Re-assert [spec] for an established flow hop by hop.  Idempotent: a hop
   whose controller still knows the flow keeps its existing grant; only
   hops that forgot are re-requested.  If any hop refuses, the flow slides
   one rung down the degradation ladder (guaranteed -> predicted ->
   datagram, Section 2's adaptive client accepting a looser commitment) and
   the pass restarts with the weaker spec. *)
and reassert t ~flow ~crashed_at s spec =
  let hops = List.length s.path in
  match spec with
  | Spec.Datagram ->
      (* Bottom rung: datagram needs no per-hop state, it always succeeds. *)
      release_everywhere t ~flow s;
      s.granted <- [];
      s.current <- Spec.Datagram;
      note_reestablished t ~crashed_at
  | _ -> (
      let local = local_of spec ~hops in
      let rec go path acc =
        match path with
        | [] -> Some (List.rev acc)
        | link :: rest ->
            let ctrl = t.ctrls.(link) in
            if Controller.mem ctrl ~flow then begin
              stamp t ~link ~flow;
              go rest (link :: acc)
            end
            else (
              match Controller.request ctrl ~flow ~path:[ 0 ] local with
              | Controller.Rejected _ -> None
              | Controller.Admitted { cls } ->
                  let sched = Fabric.sched t.fab ~link in
                  (match (spec, cls) with
                  | Spec.Guaranteed { clock_rate_bps }, _ -> (
                      try Csz_sched.add_guaranteed sched ~flow ~clock_rate_bps
                      with Invalid_argument _ -> ())
                  | Spec.Predicted _, Some c ->
                      Csz_sched.set_predicted sched ~flow ~cls:c
                  | Spec.Predicted _, None | Spec.Datagram, _ -> ());
                  stamp t ~link ~flow;
                  go rest (link :: acc))
      in
      match go s.path [] with
      | Some granted ->
          s.granted <- granted;
          s.current <- spec;
          note_reestablished t ~crashed_at
      | None ->
          t.degraded <- t.degraded + 1;
          release_everywhere t ~flow s;
          s.granted <- [];
          reassert t ~flow ~crashed_at s (degrade t s spec ~hops))

and degrade t s spec ~hops =
  match spec with
  | Spec.Guaranteed { clock_rate_bps } ->
      (* Ask for predicted service shaped like the old commitment: the
         flow's declared bucket if it gave one, else a bucket at the old
         clock rate; the delay target is the loosest class end to end. *)
      let bucket =
        match s.own_bucket with
        | Some b -> b
        | None ->
            {
              Spec.rate_bps = clock_rate_bps;
              depth_bits = 5. *. float_of_int Units.packet_bits;
            }
      in
      let loosest = t.class_targets.(Array.length t.class_targets - 1) in
      Spec.Predicted
        {
          bucket;
          target_delay = loosest *. float_of_int hops;
          target_loss = 0.01;
        }
  | Spec.Predicted _ | Spec.Datagram -> Spec.Datagram

and resetup t ~flow ~crashed_at =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()  (* torn down while the refresh was in flight *)
  | s -> reassert t ~flow ~crashed_at s s.current

let reap_refresh t () =
  let token = Ring.pop_exn t.refresh_reaps in
  let flow = Ring.pop_exn t.refresh_reap_flows in
  if Seqmap.mem t.pending_msgs token then begin
    Seqmap.remove t.pending_msgs token;
    clear_refresh_token t ~flow token
  end

let reap_teardown t () =
  Seqmap.remove t.pending_msgs
    (Ring.pop_exn t.teardown_reaps)

(* The agent at [link] expires one un-refreshed reservation: releases the
   admission record and scheduler registration, and — when the flow is
   still nominally established — drops the hop from its grant list so a
   later teardown does not double-release.  The next refresh pass notices
   the missing hop and re-asserts; state of a departed flow whose teardown
   was lost simply dies here. *)
let expire t ~link ~flow =
  t.expired <- t.expired + 1;
  wipe_hop t ~link ~flow;
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s ->
      s.granted <- List.filter (fun l -> l <> link) s.granted

let deploy ~fabric:fab ?(class_targets = [| 0.008; 0.064 |])
    ?(epoch_interval = 1.0) ?(reverse_hop_delay = 1e-3)
    ?(setup_timeout = 0.05) ?(max_retries = 4) ?refresh_interval
    ?(lifetime_epochs = 3) () =
  let k = Array.length class_targets in
  if k = 0 then invalid_arg "Signaling.deploy: class_targets must be non-empty";
  if class_targets.(0) <= 0. then
    invalid_arg "Signaling.deploy: class_targets must be positive";
  for i = 1 to k - 1 do
    if class_targets.(i) <= class_targets.(i - 1) then
      invalid_arg "Signaling.deploy: class_targets must be strictly increasing"
  done;
  if setup_timeout <= 0. then
    invalid_arg "Signaling.deploy: setup_timeout must be positive";
  if max_retries < 0 then
    invalid_arg "Signaling.deploy: max_retries must be non-negative";
  (match refresh_interval with
  | Some ri when ri <= 0. ->
      invalid_arg "Signaling.deploy: refresh_interval must be positive"
  | Some _ | None -> ());
  if lifetime_epochs < 1 then
    invalid_arg "Signaling.deploy: lifetime_epochs must be at least 1";
  let n_links = Fabric.n_links fab in
  (* Chain check: link i must be the one-hop path from switch i to i+1. *)
  for i = 0 to n_links - 1 do
    if Fabric.path fab ~ingress:i ~egress:(i + 1) <> Some [ i ] then
      invalid_arg "Signaling.deploy: chain fabrics only"
  done;
  let ctrls =
    Array.init n_links (fun _ ->
        Controller.create ~n_links:1 ~mu_bps:Units.link_rate_bps ~class_targets
          ())
  in
  let lifetime =
    match refresh_interval with
    | None -> 0.
    | Some ri -> ri *. float_of_int lifetime_epochs
  in
  let n_switches = Fabric.n_switches fab in
  let t =
    {
      fab;
      clock = Engine.clock (Fabric.engine fab);
      now_box = 0.;
      class_targets;
      reverse_hop_delay;
      setup_timeout;
      max_retries;
      refresh_interval;
      lifetime;
      teardown_reap =
        (if refresh_interval = None then 20. *. setup_timeout else lifetime);
      refresh_reaps = Ring.create ~dummy:(-1) ();
      refresh_reap_flows = Ring.create ~dummy:(-1) ();
      reap_refresh = nop;
      teardown_reaps = Ring.create ~dummy:(-1) ();
      reap_teardown = nop;
      ctrls;
      paths = Array.make_matrix n_switches n_switches unresolved;
      injects =
        Array.init n_switches (fun at_switch pkt ->
            Fabric.inject fab ~at_switch pkt);
      refusals =
        Array.init n_links (fun hop ->
            "refused at hop " ^ string_of_int (hop + 1) ^ ": ");
      soft = Array.init n_links (fun _ -> Hashtbl.create 16);
      pending_msgs = Seqmap.create ~capacity:64 ~dummy:no_pending;
      next_token = 0;
      in_flight = Hashtbl.create 16;
      flows = Hashtbl.create 32;
      established_count = 0;
      total_established = 0;
      refused_count = 0;
      teardowns = 0;
      control_packets = 0;
      retries = 0;
      abandoned = 0;
      crashes = 0;
      degraded = 0;
      reestablished = 0;
      reestablish_total = 0.;
      refreshes = 0;
      refresh_packets = 0;
      teardown_packets = 0;
      expired = 0;
    }
  in
  t.reap_refresh <- reap_refresh t;
  t.reap_teardown <- reap_teardown t;
  (* Control channels: one flow per link, delivered to the downstream
     agent, which resumes the setup from there. *)
  for link = 0 to n_links - 1 do
    Fabric.install_flow fab ~flow:(ctrl_flow_base + link) ~ingress:link
      ~egress:(link + 1)
      ~sink:(fun pkt ->
        let seq = Packet.seq pkt in
        Packet.free pkt;
        process t seq)
  done;
  (* Measurement pumps, one per link's controller. *)
  let last_bits = Array.make n_links 0 in
  let rec pump () =
    for i = 0 to n_links - 1 do
      let bits = Csz_sched.realtime_bits_sent (Fabric.sched fab ~link:i) in
      Meter.note_util
        (Controller.meter ctrls.(i) ~link:0)
        (float_of_int (bits - last_bits.(i))
        /. (Units.link_rate_bps *. epoch_interval));
      last_bits.(i) <- bits;
      Controller.epoch ctrls.(i)
    done;
    ignore (Engine.schedule_after (engine t) ~delay:epoch_interval pump)
  in
  ignore (Engine.schedule_after (engine t) ~delay:epoch_interval pump);
  (* Per-class delay measurements feed each link's own controller. *)
  for i = 0 to n_links - 1 do
    let meter = Controller.meter ctrls.(i) ~link:0 in
    Csz_sched.set_delay_hook (Fabric.sched fab ~link:i) (fun ~cls delay ->
        if cls >= 0 && cls < k then Meter.note_delay meter ~cls delay)
  done;
  (* The soft-state sweep: every refresh interval, each agent expires the
     reservations that have not been stamped within the lifetime.  Expired
     flows are collected and sorted first so the order is deterministic
     regardless of hash-table layout. *)
  (match refresh_interval with
  | None -> ()
  | Some ri ->
      let rec sweep () =
        let now = Engine.now (engine t) in
        for link = 0 to n_links - 1 do
          let dead =
            Hashtbl.fold
              (fun flow at acc ->
                if now -. at > t.lifetime then flow :: acc else acc)
              t.soft.(link) []
          in
          List.iter (fun flow -> expire t ~link ~flow) (List.sort compare dead)
        done;
        ignore (Engine.schedule_after (engine t) ~delay:ri sweep)
      in
      ignore (Engine.schedule_after (engine t) ~delay:ri sweep));
  t

let route t ~ingress ~egress =
  let n = Array.length t.paths in
  if ingress >= 0 && ingress < n && egress >= 0 && egress < n then begin
    let r = t.paths.(ingress).(egress) in
    if r != unresolved then r
    else begin
      let r = Fabric.path t.fab ~ingress ~egress in
      t.paths.(ingress).(egress) <- r;
      r
    end
  end
  else Fabric.path t.fab ~ingress ~egress

let setup t ~flow ~ingress ~egress ?own_bucket spec ~sink ~on_result =
  if Hashtbl.mem t.in_flight flow || Hashtbl.mem t.flows flow then
    invalid_arg
      (Printf.sprintf "Signaling.setup: flow %d already in flight" flow);
  match route t ~ingress ~egress with
  | None | Some [] -> on_result (Error "no route")
  | Some path ->
      Hashtbl.replace t.in_flight flow ();
      let s =
        {
          flow_id = flow;
          ingress;
          egress;
          spec;
          local = local_of spec ~hops:(List.length path);
          own_bucket;
          sink;
          on_result;
          started_at = now t;
          path;
          current = spec;
          granted = [];
          ingress_cls = None;
          bound_acc = 0.;
          attempts = 0;
          phase = Reserving;
          error = "";
          token = -1;
          hop = 0;
          timer_h = Engine.no_handle;
          timer = nop;
        }
      in
      s.timer <- (fun () -> on_timer t s);
      (* The ingress agent processes hop 0 locally, with no wire delay. *)
      advance t s 0

(* Cancel the refresh pump and invalidate any refresh leg on the wire, so
   a delayed refresh cannot re-assert state for a flow being removed. *)
let cancel_refresh t s =
  if s.timer_h <> Engine.no_handle then begin
    Engine.cancel (engine t) s.timer_h;
    s.timer_h <- Engine.no_handle
  end;
  if s.token >= 0 then begin
    Seqmap.remove t.pending_msgs s.token;
    s.token <- -1
  end

let remove_record t ~flow s =
  cancel_refresh t s;
  Hashtbl.remove t.flows flow;
  t.established_count <- t.established_count - 1;
  t.teardowns <- t.teardowns + 1

let teardown t ~flow =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s ->
      remove_record t ~flow s;
      release_granted t ~flow s.granted

let depart t ~flow =
  match Hashtbl.find t.flows flow with
  | exception Not_found -> ()
  | s ->
      remove_record t ~flow s;
      (* The ingress hop is released locally; the rest of the path learns
         by in-band teardown message, each hop releasing and forwarding.
         A lost leg strands the downstream state — which is exactly what
         the refresh timeout exists to reclaim. *)
      teardown_hop t s 0

let crash_agent t ~switch =
  let n_links = Array.length t.ctrls in
  if switch < 0 || switch >= n_links then
    invalid_arg
      (Printf.sprintf "Signaling.crash_agent: switch %d owns no outgoing link"
         switch);
  let link = switch in
  t.crashes <- t.crashes + 1;
  (* The agent's soft state dies with it: scheduler registrations on its
     outgoing link, its admission book and its refresh stamps.  The
     forwarding plane — qdisc, buffered packets, meters — keeps running,
     so admission decisions after the crash still see measured load. *)
  let sched = Fabric.sched t.fab ~link in
  let affected = ref [] in
  Hashtbl.iter
    (fun flow s ->
      if List.mem link s.granted then begin
        Csz_sched.clear_predicted sched ~flow;
        remove_guaranteed sched ~flow
      end;
      if List.mem link s.path && s.current <> Spec.Datagram then
        affected := flow :: !affected)
    t.flows;
  Controller.reset t.ctrls.(link);
  Hashtbl.reset t.soft.(link);
  (* Soft-state recovery: every established flow through the dead agent
     re-asserts its reservation after one refresh round trip over its path
     (flows in a fixed order, for determinism). *)
  let crashed_at = Engine.now (engine t) in
  List.iter
    (fun flow ->
      let s = Hashtbl.find t.flows flow in
      let delay =
        t.reverse_hop_delay *. float_of_int (List.length s.path)
      in
      ignore
        (Engine.schedule_after (engine t) ~delay (fun () ->
             resetup t ~flow ~crashed_at)))
    (List.sort compare !affected)
