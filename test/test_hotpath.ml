open Ispn_sim

(* Steady-state allocation guards for the ranked-scheduler hot path (the
   style of the engine guard in test_engine.ml).  With the Kheap/dense-array
   rewrite, an enqueue→dequeue cycle allocates nothing in the scheduler's
   own data structures, and heap keys, virtual-clock weights and EWMA
   samples cross into [Kheap]/[Vtime]/[Ewma] through float-array slots
   rather than as boxed arguments.  What remains is the qdisc closure
   interface: the [~now] float this harness computes, boxed for each of
   the two closure calls (4 words), and the [Some pkt] of dequeue — 6
   words.  The pre-rewrite schedulers sat at ~20 (a boxed heap entry
   record plus Hashtbl probing per packet). *)

let budget = 6.

let measure_cycles qdisc =
  let packets =
    Array.init 64 (fun i ->
        Packet.make ~flow:(i land 7) ~seq:i ~created:0. ())
  in
  (* Keep a standing queue so dequeue never hits the empty path. *)
  for i = 0 to 31 do
    let now = float_of_int i *. 1e-4 in
    assert (qdisc.Qdisc.enqueue ~now packets.(i land 63))
  done;
  let cycle i =
    let now = float_of_int (i + 32) *. 1e-4 in
    ignore (qdisc.Qdisc.enqueue ~now packets.(i land 63));
    match qdisc.Qdisc.dequeue ~now with
    | Some _ -> ()
    | None -> Alcotest.fail "standing queue ran dry"
  in
  (* Warm up past flow registration and any container growth. *)
  for i = 0 to 255 do
    cycle i
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 256 to 255 + n do
    cycle i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_budget name per_cycle =
  if per_cycle > budget then
    Alcotest.failf
      "%s: %.1f minor words per enqueue+dequeue cycle (expected <= %.0f — \
       only qdisc-interface boxing, no per-packet boxing)"
      name per_cycle budget

let test_wfq_alloc_free () =
  let qdisc =
    Ispn_sched.Wfq.create
      ~pool:(Qdisc.pool ~capacity:4096)
      ~link_rate_bps:1e6
      ~weight_of:(fun _ -> 1.)
      ()
  in
  check_budget "WFQ" (measure_cycles qdisc)

let test_fifo_plus_alloc_free () =
  let _, qdisc =
    Ispn_sched.Fifo_plus.create ~pool:(Qdisc.pool ~capacity:4096) ()
  in
  check_budget "FIFO+" (measure_cycles qdisc)

let suite =
  [
    Alcotest.test_case "wfq steady state allocation-free" `Quick
      test_wfq_alloc_free;
    Alcotest.test_case "fifo+ steady state allocation-free" `Quick
      test_fifo_plus_alloc_free;
  ]
