open Ispn_sim
module Fabric = Csz.Fabric
module Service = Csz.Service
module Spec = Ispn_admission.Spec

let test_chain_paths () =
  let engine = Engine.create () in
  let f = Fabric.chain ~engine ~n_switches:4 () in
  Alcotest.(check int) "links" 3 (Fabric.n_links f);
  Alcotest.(check (option (list int))) "0->3" (Some [ 0; 1; 2 ])
    (Fabric.path f ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "1->2" (Some [ 1 ])
    (Fabric.path f ~ingress:1 ~egress:2);
  Alcotest.(check (option (list int))) "self" (Some [])
    (Fabric.path f ~ingress:2 ~egress:2);
  Alcotest.(check (option (list int))) "backwards is unroutable" None
    (Fabric.path f ~ingress:3 ~egress:0)

(* Diamond: 0 -> 1 -> 3 and 0 -> 2 -> 3. *)
let diamond engine =
  Fabric.topology ~engine ~n_switches:4
    ~links:[ (0, 1); (1, 3); (0, 2); (2, 3) ]
    ()

let test_topology_paths () =
  let engine = Engine.create () in
  let f = diamond engine in
  Alcotest.(check int) "links" 4 (Fabric.n_links f);
  (* Shortest path ties break toward switch 1 (lower id): links 0 then 1. *)
  Alcotest.(check (option (list int))) "0->3" (Some [ 0; 1 ])
    (Fabric.path f ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "unreachable" None
    (Fabric.path f ~ingress:3 ~egress:0)

let test_topology_link_ids () =
  let engine = Engine.create () in
  let f = diamond engine in
  for i = 0 to Fabric.n_links f - 1 do
    Alcotest.(check int) "link id is its index" i (Link.id (Fabric.link f i))
  done;
  (* One audit over every link keeps one state per link: a standing queue
     on link 0 balances against link 0's own qdisc, and the report-time
     conservation check runs twice per link plus once network-wide. *)
  let a = Ispn_check.Audit.create () in
  Ispn_check.Audit.attach_network a (Fabric.network f);
  Fabric.install_flow f ~flow:9 ~ingress:0 ~egress:3 ~sink:Packet.free;
  for seq = 0 to 2 do
    Fabric.inject f ~at_switch:0 (Packet.make ~flow:9 ~seq ~created:0. ())
  done;
  let s = Ispn_check.Audit.finalize a in
  Alcotest.(check int) "no violations" 0 s.Ispn_check.Audit.violations;
  let conservation =
    List.find
      (fun i -> i.Ispn_check.Audit.inv_name = "conservation")
      s.Ispn_check.Audit.invariants
  in
  Alcotest.(check int) "four link states" ((2 * 4) + 1)
    conservation.Ispn_check.Audit.inv_checks

let test_topology_delivery () =
  let engine = Engine.create () in
  let f = diamond engine in
  let got = ref 0 in
  Fabric.install_flow f ~flow:9 ~ingress:0 ~egress:3 ~sink:(fun _ -> incr got);
  Fabric.inject f ~at_switch:0 (Packet.make ~flow:9 ~seq:0 ~created:0. ());
  Engine.run engine ~until:1.;
  Alcotest.(check int) "delivered over two hops" 1 !got

let test_service_over_topology () =
  let engine = Engine.create () in
  let f = diamond engine in
  let svc = Service.create_on ~fabric:f () in
  let got = ref 0 in
  match
    Service.request svc ~flow:1 ~ingress:0 ~egress:3
      ~own_bucket:(Spec.bucket ~rate_pps:100. ~depth_packets:10. ())
      (Spec.Guaranteed { clock_rate_bps = 100_000. })
      ~sink:(fun _ -> incr got)
  with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok est ->
      (* Reservation lands on exactly the links of the shortest path. *)
      Alcotest.(check (float 1e-6)) "link 0 reserved" 100_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:0));
      Alcotest.(check (float 1e-6)) "link 1 reserved" 100_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:1));
      Alcotest.(check (float 1e-6)) "off-path link untouched" 0.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:2));
      (* The bound reflects the 2-hop path: (10 + 1 pkts) / 100 pkt/s. *)
      (match est.Service.advertised_bound with
      | Some b -> Alcotest.(check (float 1e-6)) "P-G bound" 0.11 b
      | None -> Alcotest.fail "expected bound");
      est.Service.emit (Packet.make ~flow:1 ~seq:0 ~created:0. ());
      Engine.run engine ~until:1.;
      Alcotest.(check int) "delivered" 1 !got

let test_service_no_route () =
  let engine = Engine.create () in
  let f = diamond engine in
  let svc = Service.create_on ~fabric:f () in
  match
    Service.request svc ~flow:1 ~ingress:3 ~egress:0 Spec.Datagram
      ~sink:(fun _ -> ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "routed the unroutable"

let test_class_count_mismatch () =
  let engine = Engine.create () in
  let f = Fabric.topology ~engine ~n_switches:2 ~links:[ (0, 1) ] ~n_classes:3 () in
  try
    ignore (Service.create_on ~fabric:f ~class_targets:[| 0.008; 0.064 |] ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "chain paths" `Quick test_chain_paths;
    Alcotest.test_case "topology paths" `Quick test_topology_paths;
    Alcotest.test_case "topology link ids" `Quick test_topology_link_ids;
    Alcotest.test_case "topology delivery" `Quick test_topology_delivery;
    Alcotest.test_case "service over topology" `Quick
      test_service_over_topology;
    Alcotest.test_case "service no route" `Quick test_service_no_route;
    Alcotest.test_case "class count mismatch" `Quick
      test_class_count_mismatch;
  ]
