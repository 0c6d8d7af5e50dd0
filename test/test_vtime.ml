module Vtime = Ispn_sched.Vtime

let make () = Vtime.create ~link_rate_bps:1e6

let close = Alcotest.check (Alcotest.float 1e-9)

let test_idle_clock_frozen () =
  let vt = make () in
  Vtime.advance vt ~now:5.;
  close "V stays 0 while idle" 0. (Vtime.v vt)

let test_single_flow_full_rate () =
  (* One active flow with weight = link rate: V advances at real time. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:2.;
  close "V = t" 2. (Vtime.v vt)

let test_partial_weight_speeds_v () =
  (* Active weight at half the link: V runs at twice real time (the active
     flow receives service at twice its weight's worth). *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:5e5;
  Vtime.advance vt ~now:1.;
  close "V = 2t" 2. (Vtime.v vt)

let test_weight_changes_integrate_piecewise () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  (* Second flow joins: dV/dt halves. *)
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:3.;
  close "1 + 2 * 0.5" 2. (Vtime.v vt)

let period = Alcotest.(check int)

let test_busy_period_reset () =
  let vt = make () in
  period "no period completed yet" 0 (Vtime.period vt);
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  period "still in the first period" 0 (Vtime.period vt);
  Vtime.flow_deactivated vt ~now:1. ~weight:1e6;
  period "period ended" 1 (Vtime.period vt);
  close "V back to zero" 0. (Vtime.v vt);
  (* A later busy period starts fresh. *)
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:10.;
  close "fresh integration" 9. (Vtime.v vt);
  Vtime.flow_deactivated vt ~now:10. ~weight:1e6;
  period "second period ended" 2 (Vtime.period vt)

let test_no_reset_while_others_active () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:4e5;
  Vtime.flow_activated vt ~weight:6e5;
  Vtime.flow_deactivated vt ~now:1. ~weight:4e5;
  period "no reset" 0 (Vtime.period vt);
  close "weight shrank" 6e5 (Vtime.active_weight vt)

let test_adjust_active () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  Vtime.adjust_active vt ~now:1. ~delta:(-5e5);
  period "a partial adjustment keeps the period" 0 (Vtime.period vt);
  Vtime.advance vt ~now:2.;
  (* First second at rate 1, second second at rate 2. *)
  close "piecewise with adjustment" 3. (Vtime.v vt)

let test_renegotiate_to_zero () =
  (* Regression: renegotiating the last active flow's weight down to zero
     used to leave [active_weight = 0.] with the busy period still "open",
     so the next [advance] divided by zero.  It must end the busy period
     exactly like [flow_deactivated] does. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  Vtime.adjust_active vt ~now:1. ~delta:(-1e6);
  period "period ended" 1 (Vtime.period vt);
  close "V back to zero" 0. (Vtime.v vt);
  close "weight cleared" 0. (Vtime.active_weight vt);
  (* The clock is idle and a later busy period starts fresh. *)
  Vtime.advance vt ~now:3.;
  close "idle after renegotiation" 0. (Vtime.v vt);
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:4.;
  close "fresh busy period" 1. (Vtime.v vt)

let test_adjust_epsilon_residue () =
  (* Float renegotiation arithmetic can leave a sub-epsilon residue instead
     of an exact zero; that residue must also end the busy period rather
     than surviving as a near-zero weight that sends dV/dt to infinity. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.adjust_active vt ~now:0.5 ~delta:(-1e6 +. 1e-9);
  period "residue treated as zero" 1 (Vtime.period vt);
  close "weight cleared" 0. (Vtime.active_weight vt);
  Vtime.advance vt ~now:5.;
  close "idle after clamp" 0. (Vtime.v vt)

let test_advance_monotone_guard () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:2.;
  (* A stale timestamp must not rewind the integration. *)
  Vtime.advance vt ~now:1.;
  close "no rewind" 2. (Vtime.v vt)

let suite =
  [
    Alcotest.test_case "idle clock frozen" `Quick test_idle_clock_frozen;
    Alcotest.test_case "single flow full rate" `Quick
      test_single_flow_full_rate;
    Alcotest.test_case "partial weight speeds V" `Quick
      test_partial_weight_speeds_v;
    Alcotest.test_case "piecewise integration" `Quick
      test_weight_changes_integrate_piecewise;
    Alcotest.test_case "busy period reset" `Quick test_busy_period_reset;
    Alcotest.test_case "no reset while others active" `Quick
      test_no_reset_while_others_active;
    Alcotest.test_case "adjust active" `Quick test_adjust_active;
    Alcotest.test_case "renegotiate to zero (regression)" `Quick
      test_renegotiate_to_zero;
    Alcotest.test_case "epsilon residue ends busy period" `Quick
      test_adjust_epsilon_residue;
    Alcotest.test_case "advance monotone guard" `Quick
      test_advance_monotone_guard;
  ]
