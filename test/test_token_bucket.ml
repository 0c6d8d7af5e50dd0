open Ispn_sim
module Tb = Ispn_traffic.Token_bucket

let test_starts_full () =
  let tb = Tb.create ~rate_bps:1000. ~depth_bits:5000. () in
  Alcotest.(check (float 1e-6)) "full" 5000. (Tb.level_bits tb ~now:0.)

let test_burst_up_to_depth () =
  let tb = Tb.create ~rate_bps:1000. ~depth_bits:5000. () in
  for i = 1 to 5 do
    if not (Tb.conforms tb ~now:0. ~bits:1000) then
      Alcotest.failf "packet %d of the initial burst rejected" i
  done;
  Alcotest.(check bool) "sixth rejected" false (Tb.conforms tb ~now:0. ~bits:1000)

let test_refill_over_time () =
  let tb = Tb.create ~rate_bps:1000. ~depth_bits:5000. () in
  for _ = 1 to 5 do
    ignore (Tb.conforms tb ~now:0. ~bits:1000)
  done;
  Alcotest.(check bool) "empty" false (Tb.conforms tb ~now:0. ~bits:1000);
  (* One second at 1000 bits/s refills one packet. *)
  Alcotest.(check bool) "after refill" true (Tb.conforms tb ~now:1.0 ~bits:1000)

let test_refill_caps_at_depth () =
  let tb = Tb.create ~rate_bps:1000. ~depth_bits:2000. () in
  Alcotest.(check (float 1e-6)) "capped" 2000.
    (Tb.level_bits tb ~now:1000.)

let test_nonconforming_leaves_bucket_unchanged () =
  let tb = Tb.create ~rate_bps:1000. ~depth_bits:1500. () in
  Alcotest.(check bool) "too big" false (Tb.conforms tb ~now:0. ~bits:2000);
  Alcotest.(check (float 1e-6)) "level intact" 1500. (Tb.level_bits tb ~now:0.)

(* Reference implementation: the paper's recurrence
   n_i = min (b, n_{i-1} + (t_i - t_{i-1}) r - p_i), conforming iff n_i >= 0
   for all i (with n_0' = b at t = 0). *)
let reference_conformance ~rate ~depth arrivals =
  let rec go level last_t acc = function
    | [] -> List.rev acc
    | (t, p) :: rest ->
        let filled = Stdlib.min depth (level +. ((t -. last_t) *. rate)) in
        let after = filled -. p in
        if after >= 0. then go after t (true :: acc) rest
        else go filled t (false :: acc) rest
  in
  go depth 0. [] arrivals

let qcheck_matches_paper_recurrence =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 0 50)
        (pair (float_range 0.001 0.5) (int_range 100 2000)))
  in
  QCheck.Test.make ~name:"filter decisions match the paper's n_i recurrence"
    ~count:300 gen (fun gaps ->
      (* Build a monotone arrival sequence from the positive gaps. *)
      let _, arrivals =
        List.fold_left
          (fun (t, acc) (gap, bits) ->
            let t = t +. gap in
            (t, (t, float_of_int bits) :: acc))
          (0., []) gaps
      in
      let arrivals = List.rev arrivals in
      let rate = 4000. and depth = 3000. in
      let tb = Tb.create ~rate_bps:rate ~depth_bits:depth () in
      let ours =
        List.map
          (fun (t, bits) -> Tb.conforms tb ~now:t ~bits:(int_of_float bits))
          arrivals
      in
      ours = reference_conformance ~rate ~depth arrivals)

(* --- Policer --- *)

let test_policer_drop_mode () =
  let engine = Engine.create () in
  let bucket = Tb.create ~rate_bps:1000. ~depth_bits:2000. () in
  let passed = ref 0 in
  let p =
    Tb.policer ~engine ~bucket ~mode:Tb.Drop ~next:(fun _ -> incr passed)
  in
  for i = 0 to 4 do
    Tb.police p (Packet.make ~flow:0 ~seq:i ~created:0. ())
  done;
  Alcotest.(check int) "offered" 5 (Tb.offered p);
  Alcotest.(check int) "passed" 2 !passed;
  Alcotest.(check int) "dropped" 3 (Tb.dropped p);
  Alcotest.(check int) "violations" 3 (Tb.violations p)

let test_policer_pass_mode () =
  let engine = Engine.create () in
  let bucket = Tb.create ~rate_bps:1000. ~depth_bits:1000. () in
  let passed = ref 0 in
  let p =
    Tb.policer ~engine ~bucket ~mode:Tb.Pass ~next:(fun _ -> incr passed)
  in
  for i = 0 to 3 do
    Tb.police p (Packet.make ~flow:0 ~seq:i ~created:0. ())
  done;
  Alcotest.(check int) "all forwarded" 4 !passed;
  Alcotest.(check int) "violations counted" 3 (Tb.violations p);
  Alcotest.(check int) "none dropped" 0 (Tb.dropped p)

let suite =
  [
    Alcotest.test_case "starts full" `Quick test_starts_full;
    Alcotest.test_case "burst up to depth" `Quick test_burst_up_to_depth;
    Alcotest.test_case "refill over time" `Quick test_refill_over_time;
    Alcotest.test_case "refill caps at depth" `Quick test_refill_caps_at_depth;
    Alcotest.test_case "nonconforming leaves bucket" `Quick
      test_nonconforming_leaves_bucket_unchanged;
    QCheck_alcotest.to_alcotest qcheck_matches_paper_recurrence;
    Alcotest.test_case "policer drop mode" `Quick test_policer_drop_mode;
    Alcotest.test_case "policer pass mode" `Quick test_policer_pass_mode;
  ]
