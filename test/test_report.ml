(* Report rendering: the formatted output the bench and CLI print. *)
module E = Csz.Experiment

let fake_results =
  List.map
    (fun (flow, hops, mean, p999, mx) ->
      { E.flow; hops; received = 1000; mean; p999; max = mx })
    [
      (0, 4, 9.5, 65.2, 80.0); (2, 3, 7.2, 54.2, 60.0);
      (8, 2, 4.6, 48.3, 50.0); (18, 1, 2.4, 32.0, 40.0);
    ]

let fake_info =
  {
    E.duration = 600.;
    utilization = [| 0.83 |];
    offered = 500_000;
    source_dropped = 10_000;
    net_dropped = 0;
  }

let contains = Helpers.contains

let test_table1_layout () =
  let out =
    Csz.Report.table1
      [ (E.Wfq, fake_results, fake_info); (E.Fifo, fake_results, fake_info) ]
      ~sample_flow:0
  in
  Alcotest.(check bool) "has WFQ row" true (contains out "WFQ");
  Alcotest.(check bool) "has FIFO row" true (contains out "FIFO");
  Alcotest.(check bool) "prints the sample stats" true (contains out "65.20");
  Alcotest.(check bool) "prints utilization" true (contains out "83.0%")

let test_table2_layout () =
  let out =
    Csz.Report.table2
      [ (E.Wfq, fake_results); (E.Fifo_plus, fake_results) ]
      ~sample_flows:[ 18; 8; 2; 0 ]
  in
  let lines = String.split_on_char '\n' out in
  (* Header + rule + path-length row + 2 scheduler rows. *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "path lengths present" true (contains out "path len");
  Alcotest.(check bool) "FIFO+ labelled" true (contains out "FIFO+")

let test_figure1_layout () =
  let out = Csz.Report.figure1 () in
  Alcotest.(check bool) "all switches drawn" true (contains out "S-5");
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d listed" i)
        true
        (contains out (Printf.sprintf "flow %2d:" i)))
    [ 0; 10; 21 ]

let test_flow_results_layout () =
  let out = Csz.Report.flow_results fake_results in
  Alcotest.(check int) "header + rule + 4 rows" 6
    (List.length (String.split_on_char '\n' out));
  Alcotest.(check bool) "received column" true (contains out "1000")

let test_table3_layout () =
  let res = E.run_table3 ~duration:10. () in
  let out = Csz.Report.table3 res in
  Alcotest.(check bool) "guaranteed section" true
    (contains out "Guaranteed Service");
  Alcotest.(check bool) "predicted section" true
    (contains out "Predicted Service");
  Alcotest.(check bool) "P-G bound column" true (contains out "P-G bound");
  Alcotest.(check bool) "bounds printed" true (contains out "611.76");
  Alcotest.(check bool) "tcp lines" true (contains out "TCP flow 100")

let suite =
  [
    Alcotest.test_case "table1 layout" `Quick test_table1_layout;
    Alcotest.test_case "table2 layout" `Quick test_table2_layout;
    Alcotest.test_case "figure1 layout" `Quick test_figure1_layout;
    Alcotest.test_case "flow_results layout" `Quick test_flow_results_layout;
    Alcotest.test_case "table3 layout" `Quick test_table3_layout;
  ]
