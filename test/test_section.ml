(* The section registry: the contract both front-ends rely on.  The
   rendered bytes themselves are pinned by the goldens in test/golden. *)
module S = Csz.Section

let find name = List.find (fun (s : S.t) -> s.S.name = name) S.all
let contains = Helpers.contains

let test_registry () =
  let names = List.map (fun (s : S.t) -> s.S.name) S.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (s : S.t) ->
      Alcotest.(check bool) (s.S.name ^ " documented") true (s.S.doc <> ""))
    S.all;
  Alcotest.(check (list (pair string (float 0.))))
    "bench duration caps"
    [ ("signaling", 120.); ("faults", 120.); ("seeds", 300.); ("trace", 120.) ]
    (List.filter_map
       (fun (s : S.t) -> Option.map (fun c -> (s.S.name, c)) s.S.cap)
       S.all)

(* Instruments off: nothing but text.  Instruments on: labelled parts in
   job order and footers that only add lines.  --verbose appends the
   per-flow tables. *)
let test_table1_parts () =
  let ctx = { S.default_ctx with duration = 5.; jobs = 1 } in
  let plain = (find "table1").S.run ctx in
  Alcotest.(check int) "no parts" 0
    (List.length plain.S.snapshots + List.length plain.S.exports
    + List.length plain.S.checks);
  let o =
    (find "table1").S.run
      { ctx with check = true; metrics = true; series = true }
  in
  let labels l = List.map fst l in
  let want = [ "table1.WFQ"; "table1.FIFO" ] in
  Alcotest.(check (list string)) "snapshots" want (labels o.S.snapshots);
  Alcotest.(check (list string)) "exports" want (labels o.S.exports);
  Alcotest.(check (list string)) "checks" want (labels o.S.checks);
  List.iter
    (fun (l, s) ->
      Alcotest.(check int) (l ^ " clean") 0 s.Ispn_check.Audit.violations)
    o.S.checks;
  let footer l =
    List.exists
      (fun prefix -> String.starts_with ~prefix l)
      [ "[obs] table1."; "[check] table1." ]
  in
  let lines o = String.split_on_char '\n' o.S.text in
  Alcotest.(check bool) "footers present" true (List.exists footer (lines o));
  Alcotest.(check (list string)) "footers only add lines" (lines plain)
    (List.filter (fun l -> not (footer l)) (lines o));
  let v = (find "table1").S.run { ctx with verbose = true } in
  Alcotest.(check bool) "per-flow tables" true
    (contains v.S.text "FIFO per-flow:" && contains v.S.text "\nLinks at L1 ")

let suite =
  [
    Alcotest.test_case "registry entries" `Quick test_registry;
    Alcotest.test_case "table1 parts, footers, verbose" `Quick
      test_table1_parts;
  ]
