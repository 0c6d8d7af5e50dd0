(* Ewma, Fvec, Quantile, Units and Table in one suite: small modules, small
   tests. *)
open Ispn_util

let close = Alcotest.check (Alcotest.float 1e-9)

(* --- Ewma --- *)

let test_ewma_first_observation_replaces_init () =
  let e = Ewma.create ~init:99. ~gain:0.5 () in
  close "before" 99. (Ewma.value e);
  Ewma.update e 10.;
  close "first obs wins" 10. (Ewma.value e)

let test_ewma_gain_one_tracks_exactly () =
  let e = Ewma.create ~gain:1.0 () in
  List.iter (Ewma.update e) [ 1.; 5.; 3. ];
  close "gain 1" 3. (Ewma.value e)

let test_ewma_convergence () =
  let e = Ewma.create ~gain:0.25 () in
  Ewma.update e 0.;
  for _ = 1 to 200 do
    Ewma.update e 8.
  done;
  if Float.abs (Ewma.value e -. 8.) > 1e-6 then
    Alcotest.failf "did not converge: %g" (Ewma.value e)

let test_ewma_count () =
  let e = Ewma.create ~gain:0.1 () in
  List.iter (Ewma.update e) [ 1.; 2.; 3. ];
  Alcotest.(check int) "count" 3 (Ewma.count e)

(* --- Fvec --- *)

let test_fvec_push_get_growth () =
  let v = Fvec.create ~capacity:2 () in
  for i = 0 to 99 do
    Fvec.push v (float_of_int i)
  done;
  Alcotest.(check int) "length" 100 (Fvec.length v);
  close "get 0" 0. (Fvec.get v 0);
  close "get 99" 99. (Fvec.get v 99);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Fvec.get")
    (fun () -> ignore (Fvec.get v 100))

let test_fvec_fold_iter () =
  let v = Fvec.create () in
  List.iter (Fvec.push v) [ 1.; 2.; 3. ];
  close "fold sum" 6. (Fvec.fold ( +. ) 0. v);
  let count = ref 0 in
  Fvec.iter (fun _ -> incr count) v;
  Alcotest.(check int) "iter count" 3 !count

let test_fvec_clear () =
  let v = Fvec.create () in
  Fvec.push v 1.;
  Fvec.clear v;
  Alcotest.(check int) "cleared" 0 (Fvec.length v)

let qcheck_fvec_model =
  QCheck.Test.make ~name:"fvec to_array equals pushed list" ~count:300
    QCheck.(list (float_range (-10.) 10.))
    (fun xs ->
      let v = Fvec.create () in
      List.iter (Fvec.push v) xs;
      Array.to_list (Fvec.to_array v) = xs)

let qcheck_fvec_sorted =
  QCheck.Test.make ~name:"sorted_copy is sorted permutation" ~count:300
    QCheck.(list (float_range (-10.) 10.))
    (fun xs ->
      let v = Fvec.create () in
      List.iter (Fvec.push v) xs;
      let sorted = Array.to_list (Fvec.sorted_copy v) in
      sorted = List.sort compare xs)

(* [Fvec.sort] ports Stdlib's heap sort to [float array]: it must produce
   the very permutation [Array.sort compare] does, which only bit patterns
   can show — [-0.] and [0.] compare equal, as do [nan]s with different
   payloads, so a merely sorted result could still order them differently.
   Random arrays of every small length and some long ones, drawn from a
   pool dense in duplicates and special values. *)
let test_fvec_sort_matches_stdlib () =
  let g = Ispn_util.Prng.create ~seed:2026L in
  let specials =
    [|
      0.; -0.; nan; -.nan; Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff8000000000abcL; infinity; neg_infinity; 1.;
      -1.; 1e-300; -1e-300; max_float; -.max_float; epsilon_float;
    |]
  in
  let draw () =
    match Ispn_util.Prng.int g ~bound:4 with
    | 0 -> specials.(Ispn_util.Prng.int g ~bound:(Array.length specials))
    | 1 -> float_of_int (Ispn_util.Prng.int g ~bound:5 - 2)
    | _ -> (Ispn_util.Prng.float g -. 0.5) *. 1e3
  in
  let bits a = Array.map Int64.bits_of_float a in
  let check len =
    let a = Array.init len (fun _ -> draw ()) in
    let expected = Array.copy a and got = Array.copy a in
    Array.sort compare expected;
    Fvec.sort got;
    if bits expected <> bits got then
      Alcotest.failf "length %d: permutation differs from Array.sort compare"
        len
  in
  for len = 0 to 64 do
    for _ = 1 to 20 do
      check len
    done
  done;
  List.iter check [ 257; 1000; 4099 ]

(* --- Quantile --- *)

let test_quantile_known () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  close "median" 5. (Quantile.of_sorted a 0.5);
  close "p90" 9. (Quantile.of_sorted a 0.9);
  close "p100" 10. (Quantile.of_sorted a 1.0);
  close "p0" 1. (Quantile.of_sorted a 0.)

let test_quantile_singleton () =
  close "single" 7. (Quantile.of_sorted [| 7. |] 0.999)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty")
    (fun () -> ignore (Quantile.of_sorted [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.of_sorted: q out of range") (fun () ->
      ignore (Quantile.of_sorted [| 1. |] 1.5))

let qcheck_quantile_membership =
  QCheck.Test.make ~name:"quantile is an element of the sample" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 100) (float_range 0. 100.))
        (float_range 0. 1.))
    (fun (xs, q) ->
      let a = Array.of_list (List.sort compare xs) in
      List.mem (Quantile.of_sorted a q) xs)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0. 100.))
    (fun xs ->
      let a = Array.of_list (List.sort compare xs) in
      let qs = [ 0.; 0.25; 0.5; 0.75; 0.9; 0.999; 1.0 ] in
      let vals = List.map (Quantile.of_sorted a) qs in
      List.sort compare vals = vals)

(* --- Units --- *)

let test_units_transmission_time () =
  close "1000 bits at 1Mbps = 1ms" 0.001
    (Units.transmission_time ~link_rate_bps:1e6 ~packet_bits:1000)

let test_units_roundtrip () =
  let s = 0.042 in
  let units = Units.packet_times ~link_rate_bps:1e6 ~packet_bits:1000 s in
  close "42 packet times" 42. units;
  close "roundtrip" s
    (Units.seconds_of_packet_times ~link_rate_bps:1e6 ~packet_bits:1000 units)

(* --- Table --- *)

let test_table_layout () =
  let out =
    Table.render ~header:[ "name"; "x" ]
      ~rows:[ [ "a"; "1.00" ]; [ "bb"; "10.00" ] ]
      ()
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* All lines equal width. *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "width" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output"

let test_table_pads_short_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_fmt_float () =
  Alcotest.(check string) "two decimals" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "custom" "3.1416"
    (Table.fmt_float ~decimals:4 3.14159)

(* Seqmap against a Hashtbl model: keys issued in increasing order, each
   op list entry either issues the next key or removes a live one (by
   index), with a tiny initial capacity so long-lived keys force growth. *)
let qcheck_seqmap_model =
  QCheck.Test.make ~name:"seqmap agrees with a Hashtbl" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let m = Seqmap.create ~capacity:2 ~dummy:(-1) in
      let h = Hashtbl.create 8 in
      let next = ref 0 in
      List.iter
        (fun (issue, i) ->
          if issue || Hashtbl.length h = 0 then begin
            Seqmap.replace m !next (10 * !next);
            Hashtbl.replace h !next (10 * !next);
            incr next
          end
          else begin
            let live =
              List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) h [])
            in
            let k = List.nth live (i mod List.length live) in
            Seqmap.remove m k;
            Hashtbl.remove h k
          end)
        ops;
      Seqmap.length m = Hashtbl.length h
      && List.for_all
           (fun k ->
             Seqmap.mem m k = Hashtbl.mem h k
             &&
             match Hashtbl.find_opt h k with
             | Some v -> Seqmap.find m k = v
             | None -> (
                 match Seqmap.find m k with
                 | _ -> false
                 | exception Not_found -> true))
           (List.init (!next + 2) Fun.id))

let test_seqmap_edges () =
  let m = Seqmap.create ~capacity:64 ~dummy:"" in
  Seqmap.replace m 5 "a";
  Seqmap.replace m 5 "b";
  Alcotest.(check int) "rebinding keeps one" 1 (Seqmap.length m);
  Alcotest.(check string) "rebound" "b" (Seqmap.find m 5);
  Seqmap.remove m 6;
  Seqmap.remove m (-3);
  Alcotest.(check bool) "negative key unbound" false (Seqmap.mem m (-3));
  Alcotest.check_raises "negative key"
    (Invalid_argument "Seqmap.replace: negative key") (fun () ->
      Seqmap.replace m (-1) "x");
  (* A key 64 issues older than the newest shares its slot at capacity 64:
     the table grows instead of evicting it. *)
  Seqmap.replace m 69 "c";
  Alcotest.(check string) "old key kept" "b" (Seqmap.find m 5);
  Alcotest.(check string) "new key bound" "c" (Seqmap.find m 69);
  Seqmap.remove m 5;
  Alcotest.check_raises "removed" Not_found (fun () -> ignore (Seqmap.find m 5))

let suite =
  [
    Alcotest.test_case "ewma first observation" `Quick
      test_ewma_first_observation_replaces_init;
    Alcotest.test_case "ewma gain one" `Quick test_ewma_gain_one_tracks_exactly;
    Alcotest.test_case "ewma convergence" `Quick test_ewma_convergence;
    Alcotest.test_case "ewma count" `Quick test_ewma_count;
    Alcotest.test_case "fvec push/get/growth" `Quick test_fvec_push_get_growth;
    Alcotest.test_case "fvec fold/iter" `Quick test_fvec_fold_iter;
    Alcotest.test_case "fvec clear" `Quick test_fvec_clear;
    QCheck_alcotest.to_alcotest qcheck_fvec_model;
    QCheck_alcotest.to_alcotest qcheck_fvec_sorted;
    Alcotest.test_case "fvec sort matches Array.sort bit for bit" `Quick
      test_fvec_sort_matches_stdlib;
    Alcotest.test_case "quantile known" `Quick test_quantile_known;
    Alcotest.test_case "quantile singleton" `Quick test_quantile_singleton;
    Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
    QCheck_alcotest.to_alcotest qcheck_quantile_membership;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    Alcotest.test_case "units transmission time" `Quick
      test_units_transmission_time;
    Alcotest.test_case "units roundtrip" `Quick test_units_roundtrip;
    Alcotest.test_case "table layout" `Quick test_table_layout;
    Alcotest.test_case "table pads short rows" `Quick
      test_table_pads_short_rows;
    Alcotest.test_case "fmt_float" `Quick test_fmt_float;
    QCheck_alcotest.to_alcotest qcheck_seqmap_model;
    Alcotest.test_case "seqmap rebinding, misses and growth" `Quick
      test_seqmap_edges;
  ]
