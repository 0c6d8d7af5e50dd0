open Ispn_sim

(* Strict Gc.minor_words budgets for the two structures the wheel/arena
   rewrite made allocation-free: the engine's drain loop and the packet
   arena's take/release cycle.  Unlike the steady-state ceilings in
   test_hotpath.ml (which tolerate qdisc-interface boxing), these assert
   ZERO words — any regression to per-event or per-packet boxing fails.

   Measurement discipline: a float crossing a function boundary is boxed
   (2 minor words) on a non-flambda compiler, so the loops below pass only
   float literals (statically allocated) or keep computed floats out of
   call arguments.  The engine chain uses a constant [~delay] for the same
   reason: the cost of boxing a *computed* delay belongs to the caller,
   not to the engine. *)

let per_n f n =
  (* One throwaway run to trigger any lazy growth, then measure. *)
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_engine_drain_zero_alloc () =
  let e = Engine.create () in
  let n = 50_000 in
  let count = ref 0 in
  let rec act () =
    incr count;
    if !count < n then ignore (Engine.schedule_after e ~delay:1e-5 act)
  in
  ignore (Engine.schedule_after e ~delay:1e-5 act);
  (* Warm the wheel's slot and due arrays. *)
  Engine.run e ~until:0.05;
  let before = Gc.minor_words () in
  Engine.run e ~until:10.;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all fired" n !count;
  let per_event = words /. float_of_int (n - !count + n) in
  if per_event > 0.01 then
    Alcotest.failf
      "engine drain: %.3f minor words per event (expected 0 — the \
       schedule/fire/pop path must not box)"
      per_event

let test_arena_take_release_zero_alloc () =
  (* Warm-up grows the arena past the high-water mark of the loop, so the
     measured cycles recycle the free list only. *)
  let warm = Array.init 64 (fun i -> Packet.make ~flow:i ~seq:i ~created:0. ()) in
  Array.iter Packet.free warm;
  let per =
    per_n
      (fun () ->
        let p = Packet.make ~flow:3 ~seq:7 ~created:0. () in
        Packet.free p)
      20_000
  in
  if per > 0.01 then
    Alcotest.failf
      "arena make+free: %.3f minor words per packet (expected 0 — handles \
       recycle through the free list without boxing)"
      per

let test_arena_field_stores_zero_alloc () =
  (* The point of the struct-of-arrays layout: hot-path float stores into
     a bound arena are unboxed.  (The old mixed record boxed every store.) *)
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  let pa = Packet.arena () in
  let per =
    per_n
      (fun () ->
        pa.Packet.enqueued_at.(p) <- pa.Packet.enqueued_at.(p) +. 1e-6;
        pa.Packet.qdelay_total.(p) <- pa.Packet.qdelay_total.(p) +. 1e-6;
        pa.Packet.offset.(p) <- pa.Packet.offset.(p) +. 1e-6)
      20_000
  in
  Packet.free p;
  if per > 0.01 then
    Alcotest.failf
      "arena float stores: %.3f minor words per 3 stores (expected 0 — \
       float-array writes are unboxed)"
      per

let test_fifo_cycle_interface_budget () =
  (* Full enqueue+dequeue through the qdisc closures: the only remaining
     allocation is the interface itself — the boxed [~now] argument of
     each closure call and dequeue's [Some pkt] — so ~6 words/cycle.
     8 catches any return of per-packet structures while documenting that
     the option and the two boxed floats are the irreducible residue. *)
  let qdisc = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:128) () in
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  assert (qdisc.Qdisc.enqueue ~now:0. p);
  let clock = ref 0. in
  let per =
    per_n
      (fun () ->
        clock := !clock +. 1e-6;
        let q = Packet.make ~flow:1 ~seq:1 ~created:0. () in
        ignore (qdisc.Qdisc.enqueue ~now:!clock q);
        match qdisc.Qdisc.dequeue ~now:!clock with
        | Some served -> Packet.free served
        | None -> Alcotest.fail "standing queue ran dry")
      20_000
  in
  if per > 8. then
    Alcotest.failf
      "FIFO cycle: %.1f minor words (expected <= 8: two boxed ~now floats \
       and dequeue's Some)"
      per

let test_link_hop_budget () =
  (* One hop through a FIFO link with a propagation delay: send (qdisc
     accept, transmitter start), finish (serialization done), deliver
     (after propagation).  The only words left are the qdisc interface's:
     a boxed clock reading per closure call and dequeue's [Some], 6 per
     packet both when packets queue back to back (send boxes one for its
     enqueue, finish one for the next dequeue) and when each finds the
     transmitter idle (send's box serves enqueue and dequeue; finish boxes
     one for the dequeue that finds the queue empty).  Transmission and
     delivery reuse event actions built at [Link.create]. *)
  let engine = Engine.create () in
  let qdisc = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:1024) () in
  let link =
    Link.create ~engine ~rate_bps:1e6 ~prop_delay:1e-3 ~qdisc ~name:"hop" ()
  in
  let delivered = ref 0 in
  Link.set_receiver link (fun p ->
      incr delivered;
      Packet.free p);
  let batch = 1000 and rounds = 20 in
  let check phase per =
    if per > 6.05 then
      Alcotest.failf
        "link hop (%s): %.2f minor words per packet (expected <= 6, the \
         qdisc-interface residue)"
        phase per
  in
  (* Back to back: a batch of sends at one instant, then drain.  Each
     round's [Engine.run] call adds a few words, about 0.01 per packet. *)
  let per =
    per_n
      (fun () ->
        for i = 1 to batch do
          Link.send link (Packet.make ~flow:1 ~seq:i ~created:0. ())
        done;
        Engine.run engine ~until:(Engine.now engine +. 10.))
      rounds
    /. float_of_int batch
  in
  check "back to back" per;
  (* Idle transmitter: one send every 2 ms, each transmission 1 ms. *)
  let left = ref 0 in
  let rec tick () =
    Link.send link (Packet.make ~flow:1 ~seq:!left ~created:0. ());
    decr left;
    if !left > 0 then ignore (Engine.schedule_after engine ~delay:2e-3 tick)
  in
  let per =
    per_n
      (fun () ->
        left := batch;
        ignore (Engine.schedule_after engine ~delay:2e-3 tick);
        Engine.run engine ~until:(Engine.now engine +. 10.))
      rounds
    /. float_of_int batch
  in
  check "idle" per;
  Alcotest.(check int) "every packet delivered" (2 * (rounds + 1) * batch)
    !delivered

let test_table3_words_per_transmission () =
  (* The whole packet path at the paper's Table 3 load: sources, policers,
     three CSZ links, TCP, probes and result extraction.  10 simulated
     seconds measure 11.9 minor words per link transmission, set-up and
     extraction included (DESIGN.md, "Hot-path discipline").  Every
     packet is [Units.packet_bits] long, so a link's transmissions are
     its busy time over one packet's transmission time. *)
  let duration = 10. in
  let before = Gc.minor_words () in
  let r = Csz.Experiment.run_table3 ~duration ~seed:1L () in
  let words = Gc.minor_words () -. before in
  let per_packet_s =
    float_of_int Ispn_util.Units.packet_bits /. Ispn_util.Units.link_rate_bps
  in
  let sent =
    Array.fold_left
      (fun acc u -> acc +. Float.round (u *. duration /. per_packet_s))
      0. r.Csz.Experiment.info.Csz.Experiment.utilization
  in
  let per = words /. sent in
  if per > 13. then
    Alcotest.failf
      "table3 (%.0f s): %.1f minor words per link transmission (expected \
       <= 13)"
      duration per

let test_churn_words_per_transmission () =
  (* The whole audited soft-state workload, as perfbench's churn-audited
     times it: session arrivals, hop-by-hop signaling, admission, refresh
     and teardown legs, the four fault scenarios and the auditor on every
     link.  A first run with a one-sample series counts the link
     transmissions; the measured run repeats it without the series (same
     seed, same events).  5 simulated seconds measure 61.1 minor words per
     transmission, set-up included; 30 seconds measure 48.5, as start-up
     amortizes. *)
  let duration = 5. in
  let counted =
    Csz.Extensions.run_churn ~duration ~seed:1L ~check:true
      ~series_interval:duration ()
  in
  let sent =
    List.fold_left
      (fun acc r ->
        match r.Csz.Extensions.ch_series with
        | None -> acc
        | Some ex ->
            List.fold_left
              (fun acc (name, col) ->
                if Filename.extension name = ".sent" then
                  acc +. col.(Array.length col - 1)
                else acc)
              acc ex.Ispn_obs.Series.ex_columns)
      0. counted
  in
  let before = Gc.minor_words () in
  ignore (Csz.Extensions.run_churn ~duration ~seed:1L ~check:true ());
  let per = (Gc.minor_words () -. before) /. sent in
  if per > 68. then
    Alcotest.failf
      "churn (%.0f s, audited): %.1f minor words per link transmission \
       (expected <= 68)"
      duration per

let test_route_lookup_budget () =
  (* Signaling resolves every session's route through [Fabric.path]; once
     the ingress's tree is built, a lookup allocates only its result: one
     cons cell (3 words) per link plus the [Some] (2). *)
  let engine = Engine.create () in
  let fab = Csz.Fabric.chain ~engine ~n_switches:5 () in
  let per =
    per_n
      (fun () ->
        ignore (Sys.opaque_identity (Csz.Fabric.path fab ~ingress:0 ~egress:4)))
      10_000
  in
  if per > float_of_int ((3 * 4) + 2) then
    Alcotest.failf "route lookup: %.1f minor words for 4 hops (expected <= 14)"
      per

let test_scale_setup_budget () =
  (* Parking-lot setup: 2000 flows over 20 switches.  Routes are one BFS
     tree per distinct ingress (at most 20); the spawning domain measures
     about 85 k minor words, and one search per flow would cost about
     970 k.  The shard's own domain is not counted by [Gc.minor_words]. *)
  let before = Gc.minor_words () in
  ignore (Csz.Extensions.run_scale ~duration:1e-6 ());
  let words = Gc.minor_words () -. before in
  if words > 150_000. then
    Alcotest.failf
      "run_scale setup: %.0f minor words (expected <= 150000 — routing \
       must stay per ingress, not per flow)"
      words

let test_idpool_cycle_zero_alloc () =
  (* The flow-slot free list under churn: once warm, a session open/close
     is three dense-array stores and an int push/pop — no boxing. *)
  let p = Ispn_util.Idpool.create ~capacity:64 () in
  let n = 100_000 in
  let per =
    per_n
      (fun () ->
        let id = Ispn_util.Idpool.take p in
        Ispn_util.Idpool.release p ~id)
      n
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "idpool take+release: %.3f minor words per cycle (expected 0 — slots \
        are dense int arrays)"
       per)
    true (per < 0.01)

let test_sched_session_open_close_budget () =
  (* A churn session's footprint on one link's scheduler: reserve +
     classify on open, the reverse on close.  All four entry points write
     dense flow-indexed arrays; the only tolerated words are the boxed
     float rate crossing add_guaranteed's boundary. *)
  let pool = Qdisc.pool ~capacity:16 in
  let sched, _qdisc = Csz.Csz_sched.create ~pool () in
  let n = 50_000 in
  let per =
    per_n
      (fun () ->
        Csz.Csz_sched.add_guaranteed sched ~flow:7 ~clock_rate_bps:10_000.;
        Csz.Csz_sched.set_predicted sched ~flow:8 ~cls:1;
        Csz.Csz_sched.clear_predicted sched ~flow:8;
        Csz.Csz_sched.remove_guaranteed sched ~flow:7)
      n
  in
  (* Steady state measures 2: the rate boxed for the [add_guaranteed]
     call.  [g_weight_sum] lives in an all-float record and the weights
     stay inside the module.  Any per-session record, closure or Hashtbl
     would blow well past this. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "sched open+close: %.1f minor words per session (expected <= 2: \
        the boxed rate argument only)"
       per)
    true (per <= 2.)

let test_loghist_add_zero_alloc () =
  (* The histogram feed --series attaches to every dequeue: a branch, a
     log10 and an int store, on all three paths (regular, underflow,
     overflow).  Float literals only — a computed sample's boxing belongs
     to the caller. *)
  let h = Ispn_util.Loghist.create () in
  let per =
    per_n
      (fun () ->
        Ispn_util.Loghist.add h 0.004;
        Ispn_util.Loghist.add h 1e-9;
        Ispn_util.Loghist.add h 1e9)
      50_000
  in
  if per > 0.01 then
    Alcotest.failf
      "loghist add: %.3f minor words per 3 adds (expected 0 — bucket \
       counts are a dense int array)"
      per

let test_series_dequeue_tap_budget () =
  (* Everything --series hangs off a link's per-packet dequeue, composed
     the way the runners compose it: a Tap.seq dispatching into the wait
     histogram and the flight recorder's ring store.  The histogram add is
     an int bump and the ring writes scalar arrays in place, so with
     literal arguments the whole chain must not allocate. *)
  let ch = Ispn_util.Loghist.create () in
  let r = Ispn_obs.Recorder.create ~capacity:1024 () in
  let tap =
    Tap.seq
      (Tap.make
         ~on_dequeue:(fun ~link:_ ~now:_ ~wait _ ->
           Ispn_util.Loghist.add ch wait)
         ())
      (Tap.make
         ~on_dequeue:(fun ~link ~now ~wait:_ p ->
           ignore p;
           Ispn_obs.Recorder.record r ~time:now
             ~kind:Ispn_obs.Recorder.Dequeue ~link ~flow:0 ~seq:0 ~cls:(-1)
             ~offset:0. ~value:0. ~cause:Ispn_obs.Recorder.No_cause)
         ())
  in
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  let per =
    per_n (fun () -> tap.Tap.on_dequeue ~link:0 ~now:1.0 ~wait:0.002 p) 50_000
  in
  Packet.free p;
  if per > 0.01 then
    Alcotest.failf
      "series dequeue tap: %.3f minor words per dispatch (expected 0 — \
       hist add and ring store are in-place)"
      per

let test_csz_idle_cycle_budget () =
  (* A busy period's end must cost no more than any other dequeue, however
     wide the per-flow tables.  A reservation at flow 8191 grows them to
     8192 slots; driving that flow alone through an empty link makes every
     enqueue+dequeue open and end a busy period.  Its words must not exceed
     those of the micro bench's sched/CSZ cycle: a 32-deep standing queue
     of predicted and datagram flows, never idle.  That cycle itself costs
     4 words: the harness's float clock ref (2, boxed on each store) and
     dequeue's [Some]; the scheduler adds nothing. *)
  let cycle q ~flow_of =
    let clock = ref 0. and seq = ref 0 in
    per_n
      (fun () ->
        clock := !clock +. 1e-4;
        incr seq;
        let p = Packet.make ~flow:(flow_of !seq) ~seq:!seq ~created:0. () in
        ignore (q.Qdisc.enqueue ~now:!clock p);
        match q.Qdisc.dequeue ~now:!clock with
        | Some served -> Packet.free served
        | None -> Alcotest.fail "CSZ served nothing")
      20_000
  in
  let standing =
    let sched, q = Csz.Csz_sched.create ~pool:(Qdisc.unbounded_pool ()) () in
    for f = 0 to 4 do
      Csz.Csz_sched.add_guaranteed sched ~flow:(100 + f) ~clock_rate_bps:50_000.
    done;
    for f = 0 to 9 do
      Csz.Csz_sched.set_predicted sched ~flow:f ~cls:(f mod 2)
    done;
    for i = 0 to 31 do
      let p = Packet.make ~flow:(i mod 16) ~seq:i ~created:0. () in
      ignore (q.Qdisc.enqueue ~now:0. p)
    done;
    cycle q ~flow_of:(fun seq -> seq mod 16)
  in
  let idle =
    let sched, q = Csz.Csz_sched.create ~pool:(Qdisc.unbounded_pool ()) () in
    Csz.Csz_sched.add_guaranteed sched ~flow:8191 ~clock_rate_bps:50_000.;
    let words = cycle q ~flow_of:(fun _ -> 8191) in
    Alcotest.(check int) "every cycle drains the link" 0 (q.Qdisc.length ());
    words
  in
  if standing > 4. then
    Alcotest.failf
      "CSZ standing-queue cycle: %.1f minor words (expected <= 4: the \
       harness's clock and dequeue's Some)"
      standing;
  if idle > standing then
    Alcotest.failf
      "CSZ busy-period cycle: %.1f minor words (expected <= %.1f, the \
       standing-queue cycle)"
      idle standing

let test_audit_taps_zero_alloc () =
  (* The auditor on every hop of an audited run: each callback bumps
     counters and evaluates its invariants, formatting a message only when
     one fails.  A registered work-conserving link makes on_idle evaluate
     its check; literal floats keep the Tap interface's boxing out of the
     count.  (Message closures built up front cost 6-8 words a call.) *)
  let a = Ispn_check.Audit.create () in
  let engine = Engine.create () in
  let qdisc = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:4) () in
  Ispn_check.Audit.attach_link a
    (Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"wc" ());
  let tap = Ispn_check.Audit.tap a in
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  List.iter
    (fun (name, f) ->
      let per = per_n f 20_000 in
      if per > 0.01 then
        Alcotest.failf "audit %s: %.2f minor words per call (expected 0)" name
          per)
    [
      ("on_enqueue", fun () -> tap.Tap.on_enqueue ~link:0 ~now:1.0 p);
      ( "on_dequeue",
        fun () -> tap.Tap.on_dequeue ~link:0 ~now:1.0 ~wait:0.001 p );
      ("on_deliver", fun () -> tap.Tap.on_deliver ~link:0 ~now:1.0 p);
      ("on_idle", fun () -> tap.Tap.on_idle ~link:0 ~now:1.0 ~qlen:0);
    ];
  Packet.free p;
  Alcotest.(check int) "every check passed" 0
    (Ispn_check.Audit.finalize a).Ispn_check.Audit.violations

(* One signaling session's whole life on one link, the micro bench's
   [signaling/setup] loop: setup (admission, scheduler registration, the
   confirmation after the reverse trip), then teardown and the flow id's
   return to the pool.  Engine time is included. *)
let session_words spec =
  let e = Engine.create () in
  let fab = Csz.Fabric.chain ~engine:e ~n_switches:2 () in
  let sg = Csz.Signaling.deploy ~fabric:fab () in
  let pool = Ispn_util.Idpool.create () in
  let horizon = ref 0. in
  let on_result = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "session refused: %s" e
  in
  per_n
    (fun () ->
      let flow = Ispn_util.Idpool.take pool in
      Csz.Signaling.setup sg ~flow ~ingress:0 ~egress:1 spec
        ~sink:Packet.free ~on_result;
      horizon := !horizon +. 0.01;
      Engine.run e ~until:!horizon;
      Csz.Signaling.teardown sg ~flow;
      Ispn_util.Idpool.release pool ~id:flow)
    2_000

let test_signaling_session_budget () =
  (* Measured: 73 / 89 / 125 words for a datagram / guaranteed /
     predicted session.  What remains is state the session must hold (its
     record and timer action, the admission and route entries, a
     predicted flow's policer), the result handed to the requester, and
     the control packet's link hop. *)
  let module Spec = Ispn_admission.Spec in
  List.iter
    (fun (name, spec, ceiling) ->
      let per = session_words spec in
      if per > ceiling then
        Alcotest.failf
          "signaling %s session open+close: %.1f minor words (expected <= \
           %.0f)"
          name per ceiling)
    [
      ("datagram", Spec.Datagram, 80.);
      ("guaranteed", Spec.Guaranteed { clock_rate_bps = 10_000. }, 98.);
      ( "predicted",
        Spec.Predicted
          {
            bucket = { Spec.rate_bps = 10_000.; depth_bits = 10_000. };
            target_delay = 0.256;
            target_loss = 0.01;
          },
        136. );
    ]

let suite =
  [
    Alcotest.test_case "engine drain allocates nothing" `Quick
      test_engine_drain_zero_alloc;
    Alcotest.test_case "arena make+free allocates nothing" `Quick
      test_arena_take_release_zero_alloc;
    Alcotest.test_case "arena float stores are unboxed" `Quick
      test_arena_field_stores_zero_alloc;
    Alcotest.test_case "fifo cycle within interface budget" `Quick
      test_fifo_cycle_interface_budget;
    Alcotest.test_case "link hop within interface budget" `Quick
      test_link_hop_budget;
    Alcotest.test_case "table3 words per transmission" `Quick
      test_table3_words_per_transmission;
    Alcotest.test_case "churn words per transmission" `Quick
      test_churn_words_per_transmission;
    Alcotest.test_case "route lookup within budget" `Quick
      test_route_lookup_budget;
    Alcotest.test_case "scale setup within budget" `Quick
      test_scale_setup_budget;
    Alcotest.test_case "idpool cycle allocates nothing" `Quick
      test_idpool_cycle_zero_alloc;
    Alcotest.test_case "sched session open/close within budget" `Quick
      test_sched_session_open_close_budget;
    Alcotest.test_case "loghist add allocates nothing" `Quick
      test_loghist_add_zero_alloc;
    Alcotest.test_case "series dequeue tap allocates nothing" `Quick
      test_series_dequeue_tap_budget;
    Alcotest.test_case "csz busy-period cycle within budget" `Quick
      test_csz_idle_cycle_budget;
    Alcotest.test_case "audit taps allocate nothing" `Quick
      test_audit_taps_zero_alloc;
    Alcotest.test_case "signaling session open+close within budget" `Quick
      test_signaling_session_budget;
  ]
