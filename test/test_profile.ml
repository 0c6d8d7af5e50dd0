module Profile = Ispn_traffic.Profile
module Tb = Ispn_traffic.Token_bucket

let cbr ?(n = 100) ?(gap = 0.01) ?(bits = 1000) () =
  let p = Profile.create () in
  for i = 0 to n - 1 do
    Profile.record p ~time:(gap *. float_of_int i) ~bits
  done;
  p

let test_basic_accounting () =
  let p = cbr () in
  Alcotest.(check int) "packets" 100 (Profile.packets p);
  Alcotest.(check int) "bits" 100_000 (Profile.total_bits p);
  Alcotest.(check (float 1e-6)) "duration" 0.99 (Profile.duration p);
  Alcotest.(check (float 1.)) "peak = 1000/0.01" 100_000. (Profile.peak_rate_bps p)

let test_cbr_depth_is_one_packet () =
  (* A CBR stream at exactly its own rate needs only one packet of depth. *)
  let p = cbr () in
  Alcotest.(check (float 1e-6)) "b(rate) = 1 packet" 1000.
    (Profile.min_depth_bits p ~rate_bps:100_000.)

let test_depth_grows_as_rate_shrinks () =
  let p = cbr () in
  let b_full = Profile.min_depth_bits p ~rate_bps:100_000. in
  let b_half = Profile.min_depth_bits p ~rate_bps:50_000. in
  let b_tenth = Profile.min_depth_bits p ~rate_bps:10_000. in
  Alcotest.(check bool) "monotone" true (b_full <= b_half && b_half <= b_tenth);
  (* At half rate the deficit accumulates 500 bits per 10 ms over 99 gaps,
     plus the final packet. *)
  Alcotest.(check (float 1.)) "b(r/2)" (500. *. 99. +. 1000.) b_half

let test_burst_depth () =
  (* A 10-packet instantaneous burst then silence: b(r) = 10 packets for
     any finite r. *)
  let p = Profile.create () in
  for _ = 1 to 10 do
    Profile.record p ~time:0. ~bits:1000
  done;
  Profile.record p ~time:10. ~bits:1000;
  Alcotest.(check (float 1e-6)) "burst depth" 10_000.
    (Profile.min_depth_bits p ~rate_bps:1e6)

let test_depth_certifies_conformance () =
  (* The computed b(r) must actually pass the recorded trace through a real
     token bucket without drops — and b(r) minus one packet must not. *)
  let p = Profile.create () in
  let prng = Ispn_util.Prng.create ~seed:5L in
  let time = ref 0. in
  for i = 0 to 499 do
    time := !time +. Ispn_util.Dist.exponential prng ~mean:0.01;
    Profile.record p ~time:!time ~bits:(if i mod 3 = 0 then 2000 else 1000)
  done;
  let rate = 120_000. in
  let depth = Profile.min_depth_bits p ~rate_bps:rate in
  (* Feed the identical trace (same seed) through a real token bucket. *)
  let conforms depth =
    let tb = Tb.create ~rate_bps:rate ~depth_bits:depth () in
    let all_ok = ref true in
    let prng2 = Ispn_util.Prng.create ~seed:5L in
    let time2 = ref 0. in
    for i = 0 to 499 do
      time2 := !time2 +. Ispn_util.Dist.exponential prng2 ~mean:0.01;
      let bits = if i mod 3 = 0 then 2000 else 1000 in
      if not (Tb.conforms tb ~now:!time2 ~bits) then all_ok := false
    done;
    !all_ok
  in
  Alcotest.(check bool) "b(r) conforms" true (conforms depth);
  Alcotest.(check bool) "b(r) is minimal (within one packet)" false
    (conforms (depth -. 1000.))

let test_delay_bound_uses_pg_formula () =
  let p = cbr () in
  (* b(r) = 1000 bits at the full rate; 3 hops add two max packets. *)
  Alcotest.(check (float 1e-9)) "bound" (3000. /. 100_000.)
    (Profile.delay_bound p ~rate_bps:100_000. ~hops:3)

let test_clock_rate_search () =
  let p = Profile.create () in
  (* On/off-ish: 5-packet bursts at 5 ms spacing, 100 ms apart. *)
  for burst = 0 to 19 do
    for i = 0 to 4 do
      Profile.record p
        ~time:((0.1 *. float_of_int burst) +. (0.005 *. float_of_int i))
        ~bits:1000
    done
  done;
  let target = 0.05 in
  (match Profile.clock_rate_for_delay p ~target ~hops:2 () with
  | Some r ->
      Alcotest.(check bool) "bound met at found rate" true
        (Profile.delay_bound p ~rate_bps:r ~hops:2 <= target);
      Alcotest.(check bool) "rate between mean and peak" true
        (r >= Profile.mean_rate_bps p -. 1. && r <= Profile.peak_rate_bps p +. 1.)
  | None -> Alcotest.fail "expected a feasible rate");
  (* An impossible target (tighter than one packet at peak) is refused. *)
  Alcotest.(check bool) "impossible target" true
    (Profile.clock_rate_for_delay p ~target:1e-5 ~hops:2 () = None)

let test_time_monotonicity_enforced () =
  let p = Profile.create () in
  Profile.record p ~time:1. ~bits:1000;
  try
    Profile.record p ~time:0.5 ~bits:1000;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let qcheck_depth_at_least_one_packet =
  QCheck.Test.make ~name:"b(r) >= largest packet" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 50)
           (pair (float_range 0.001 0.1) (int_range 100 5000)))
        (float_range 1e3 1e7))
    (fun (gaps, rate) ->
      let p = Profile.create () in
      let time = ref 0. in
      let biggest = ref 0 in
      List.iter
        (fun (gap, bits) ->
          time := !time +. gap;
          biggest := max !biggest bits;
          Profile.record p ~time:!time ~bits)
        gaps;
      Profile.min_depth_bits p ~rate_bps:rate >= float_of_int !biggest)

let qcheck_depth_monotone_in_rate =
  QCheck.Test.make ~name:"b(r) non-increasing in r" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 2 40)
        (pair (float_range 0.001 0.05) (int_range 500 2000)))
    (fun gaps ->
      let p = Profile.create () in
      let time = ref 0. in
      List.iter
        (fun (gap, bits) ->
          time := !time +. gap;
          Profile.record p ~time:!time ~bits)
        gaps;
      let rates = [ 1e4; 5e4; 1e5; 5e5; 1e6 ] in
      let depths = List.map (fun r -> Profile.min_depth_bits p ~rate_bps:r) rates in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-6 && non_increasing rest
        | _ -> true
      in
      non_increasing depths)

let suite =
  [
    Alcotest.test_case "basic accounting" `Quick test_basic_accounting;
    Alcotest.test_case "cbr depth is one packet" `Quick
      test_cbr_depth_is_one_packet;
    Alcotest.test_case "depth grows as rate shrinks" `Quick
      test_depth_grows_as_rate_shrinks;
    Alcotest.test_case "burst depth" `Quick test_burst_depth;
    Alcotest.test_case "depth certifies conformance" `Quick
      test_depth_certifies_conformance;
    Alcotest.test_case "delay bound uses P-G formula" `Quick
      test_delay_bound_uses_pg_formula;
    Alcotest.test_case "clock rate search" `Quick test_clock_rate_search;
    Alcotest.test_case "time monotonicity enforced" `Quick
      test_time_monotonicity_enforced;
    QCheck_alcotest.to_alcotest qcheck_depth_at_least_one_packet;
    QCheck_alcotest.to_alcotest qcheck_depth_monotone_in_rate;
  ]
