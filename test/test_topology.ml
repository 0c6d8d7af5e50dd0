open Ispn_sim

let fifo () = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:100) ()

let graph engine ~n_switches links =
  Network.graph ~engine ~n_switches ~links ~rate_bps:1e6
    ~qdisc_of:(fun _ -> fifo ())
    ()

(* A diamond:  0 -> 1 -> 3  and  0 -> 2 -> 3, plus a long way 1 -> 2.
   Link indices: 0 = 0->1, 1 = 1->3, 2 = 0->2, 3 = 2->3, 4 = 1->2. *)
let diamond engine =
  graph engine ~n_switches:4 [ (0, 1); (1, 3); (0, 2); (2, 3); (1, 2) ]

let test_shortest_path_picks_fewest_hops () =
  let engine = Engine.create () in
  let t = diamond engine in
  Alcotest.(check (option (list int))) "0->3 via lowest-id tie-break"
    (Some [ 0; 1 ])
    (Network.path t ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "1->2 direct" (Some [ 4 ])
    (Network.path t ~ingress:1 ~egress:2);
  Alcotest.(check (option (list int))) "self" (Some [])
    (Network.path t ~ingress:0 ~egress:0)

let test_unreachable () =
  let engine = Engine.create () in
  let t = diamond engine in
  (* Links are directed: nothing reaches 0. *)
  Alcotest.(check (option (list int))) "3->0 unreachable" None
    (Network.path t ~ingress:3 ~egress:0);
  (try
     Network.install_flow t ~flow:1 ~ingress:3 ~egress:0 ~sink:(fun _ -> ());
     Alcotest.fail "expected Failure"
   with Failure _ -> ());
  try
    ignore (Network.path t ~ingress:0 ~egress:4);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_end_to_end_delivery () =
  let engine = Engine.create () in
  let t = diamond engine in
  let got = ref [] in
  Network.install_flow t ~flow:7 ~ingress:0 ~egress:3 ~sink:(fun p ->
      got := (Engine.now engine, Packet.seq p) :: !got);
  Alcotest.(check (option (list int))) "installed along shortest path"
    (Some [ 0; 1 ])
    (Network.path t ~ingress:0 ~egress:3);
  for i = 0 to 2 do
    Network.inject t ~at_switch:0 (Packet.make ~flow:7 ~seq:i ~created:0. ())
  done;
  Engine.run engine ~until:1.;
  let got = List.rev !got in
  Alcotest.(check int) "all delivered" 3 (List.length got);
  (* Two hops: first packet needs 2 transmission times. *)
  match got with
  | (t0, seq0) :: _ ->
      Alcotest.(check int) "in order" 0 seq0;
      Alcotest.(check (float 1e-9)) "2 hops" 0.002 t0
  | [] -> Alcotest.fail "no delivery"

let test_duplex_and_reverse_traffic () =
  let engine = Engine.create () in
  let t = graph engine ~n_switches:2 [ (0, 1); (1, 0) ] in
  let fwd = ref 0 and rev = ref 0 in
  Network.install_flow t ~flow:1 ~ingress:0 ~egress:1 ~sink:(fun _ -> incr fwd);
  Network.install_flow t ~flow:2 ~ingress:1 ~egress:0 ~sink:(fun _ -> incr rev);
  Network.inject t ~at_switch:0 (Packet.make ~flow:1 ~seq:0 ~created:0. ());
  Network.inject t ~at_switch:1 (Packet.make ~flow:2 ~seq:0 ~created:0. ());
  Engine.run engine ~until:1.;
  Alcotest.(check int) "forward" 1 !fwd;
  Alcotest.(check int) "reverse" 1 !rev

let rejected msg links =
  let engine = Engine.create () in
  try
    ignore (graph engine ~n_switches:4 links);
    Alcotest.failf "%s: expected Invalid_argument" msg
  with Invalid_argument _ -> ()

let test_duplicate_link_rejected () =
  rejected "duplicate" [ (0, 1); (1, 3); (0, 1) ];
  rejected "out of range" [ (0, 1); (3, 4) ];
  rejected "negative" [ (-1, 0) ]

let test_self_loop_rejected () = rejected "self loop" [ (0, 1); (1, 1) ]

let test_iter_links_and_drops () =
  let engine = Engine.create () in
  let t = diamond engine in
  Alcotest.(check int) "five links" 5 (Network.n_links t);
  for i = 0 to 4 do
    let l = Network.link t i in
    Alcotest.(check int) "link id is its index" i (Link.id l);
    Alcotest.(check string) "link name" (Printf.sprintf "L-%d" (i + 1))
      (Link.name l)
  done;
  Alcotest.(check int) "no drops yet" 0 (Network.total_dropped t)

(* Reference model for the route table: an early-exit BFS over the
   (src, dst) list that sorts each switch's neighbours at every visit and
   returns switch ids.  [Network.path] must give the same routes. *)
let reference_path ~n ~links ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let prev = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(src) <- true;
    let frontier = Queue.create () in
    Queue.push src frontier;
    let found = ref false in
    while (not !found) && not (Queue.is_empty frontier) do
      let u = Queue.pop frontier in
      let neighbours =
        List.sort compare
          (List.filter_map (fun (a, b) -> if a = u then Some b else None) links)
      in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            prev.(v) <- u;
            if v = dst then found := true;
            Queue.push v frontier
          end)
        neighbours
    done;
    if not seen.(dst) then None
    else
      let rec walk v acc =
        if v = src then v :: acc else walk prev.(v) (v :: acc)
      in
      Some (walk dst [])
  end

let qcheck_random_graphs_route_or_fail_cleanly =
  QCheck.Test.make ~name:"random graphs: BFS path is valid when present"
    ~count:100
    QCheck.(
      pair (int_range 2 8)
        (list_of_size (Gen.int_range 0 20) (pair (int_bound 7) (int_bound 7))))
    (fun (n, edges) ->
      let links =
        List.fold_left
          (fun acc (a, b) ->
            let a = a mod n and b = b mod n in
            if a = b || List.mem (a, b) acc then acc else acc @ [ (a, b) ])
          [] edges
      in
      let t = graph (Engine.create ()) ~n_switches:n links in
      let index = List.mapi (fun i l -> (l, i)) links in
      let rec to_links = function
        | a :: (b :: _ as rest) -> List.assoc (a, b) index :: to_links rest
        | [ _ ] | [] -> []
      in
      (* Every route must be the reference model's, as link indices. *)
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if
            Network.path t ~ingress:src ~egress:dst
            <> Option.map to_links (reference_path ~n ~links ~src ~dst)
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "shortest path fewest hops" `Quick
      test_shortest_path_picks_fewest_hops;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "end-to-end delivery" `Quick test_end_to_end_delivery;
    Alcotest.test_case "duplex and reverse traffic" `Quick
      test_duplex_and_reverse_traffic;
    Alcotest.test_case "duplicate link rejected" `Quick
      test_duplicate_link_rejected;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "iter links and drops" `Quick test_iter_links_and_drops;
    QCheck_alcotest.to_alcotest qcheck_random_graphs_route_or_fail_cleanly;
  ]
