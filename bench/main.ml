(* Benchmark harness: regenerates every table and figure of Clark, Shenker &
   Zhang (SIGCOMM 1992) plus the extension experiments, and microbenchmarks
   the per-packet cost of each scheduler.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one section
     dune exec bench/main.exe -- --fast  # 60 s runs instead of 600 s
     dune exec bench/main.exe -- -j 4    # fan runs over 4 domains

   Absolute numbers need not match the paper (different simulator details);
   the shapes are what the harness demonstrates, and the paper's reference
   values are printed alongside for comparison.

   Every section but [micro] is a {!Csz.Section} entry, rendered exactly as
   [ispn_sim] renders it; this file only parses flags, prints the banners
   and host timing, and writes the collected exports.  Stdout is a function
   of (sections, duration, seed) only — timing goes to stderr and the
   fan-out is deterministic, so `-j N` output is byte-identical to `-j 1`
   for every N. *)

module Section = Csz.Section

let ctx = ref Section.default_ctx
let json = ref false
let metrics_file : string option ref = ref None
let series_file : string option ref = ref None
let debug = ref false

(* ---- Microbenchmarks ---------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let make_qdisc = function
    | "FIFO" ->
        Ispn_sched.Fifo.create ~pool:(Ispn_sim.Qdisc.unbounded_pool ()) ()
    | "FIFO+" ->
        snd
          (Ispn_sched.Fifo_plus.create
             ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
             ())
    | "WFQ" ->
        Ispn_sched.Wfq.create_equal
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~link_rate_bps:1e6 ()
    | "VirtualClock" ->
        Ispn_sched.Virtual_clock.create
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~rate_of:(fun _ -> 1e5)
          ()
    | "DRR" ->
        Ispn_sched.Drr.create
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~quantum_bits:1000 ()
    | "EDF" ->
        Ispn_sched.Edf.create
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~deadline_of:(fun _ -> 0.01)
          ()
    | "Jitter-EDD" ->
        (* Bench packets carry no upstream earliness (offset 0), so every
           packet is immediately eligible and the engine stays idle — the
           measured cost is the two-heap ranked path. *)
        Ispn_sched.Jitter_edd.create ~engine:(Ispn_sim.Engine.create ())
          ~budget_of:(fun _ -> 0.02)
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ()
    | "HRR" ->
        (* Slots far beyond the iteration count: the first frame's credit
           never runs out, so the round-robin scan path is what's timed. *)
        Ispn_sched.Hrr.create ~engine:(Ispn_sim.Engine.create ()) ~frame:0.02
          ~slots_of:(fun _ -> 1 lsl 30)
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ()
    | "WRR" ->
        Ispn_sched.Wrr.create ~pool:(Ispn_sim.Qdisc.unbounded_pool ()) ()
    | "CBS" ->
        (* An idle slope far above the drain rate keeps every class's
           credit non-negative, so the timed path is the touch-and-pick
           scan, never the waker. *)
        Ispn_sched.Cbs.create ~engine:(Ispn_sim.Engine.create ())
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~idle_slopes_bps:[| 1e12; 1e12 |]
          ~class_of:(fun f -> f mod 2)
          ()
    | "ATS" ->
        (* A token rate and depth far above the offered load keep every
           head packet conformant: the measured cost is the per-flow
           regulator lookup plus the class scan. *)
        Ispn_sched.Ats.create ~engine:(Ispn_sim.Engine.create ())
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ~n_classes:2
          ~class_of:(fun f -> f mod 2)
          ~shaper_of:(fun _ -> (1e12, 1e9))
          ()
    | "Stop-and-Go" ->
        (* One frame per bench tick: the 32-deep standing queue keeps the
           head a full frame old, so dequeues always find it eligible. *)
        Ispn_sched.Stop_and_go.create ~engine:(Ispn_sim.Engine.create ())
          ~frame:1e-4
          ~pool:(Ispn_sim.Qdisc.unbounded_pool ())
          ()
    | "CSZ" ->
        let st, q =
          Csz.Csz_sched.create ~pool:(Ispn_sim.Qdisc.unbounded_pool ()) ()
        in
        for f = 0 to 4 do
          Csz.Csz_sched.add_guaranteed st ~flow:(100 + f)
            ~clock_rate_bps:50_000.
        done;
        for f = 0 to 9 do
          Csz.Csz_sched.set_predicted st ~flow:f ~cls:(f mod 2)
        done;
        q
    | name -> invalid_arg name
  in
  (* Per-packet cost: enqueue + dequeue through a 32-deep standing queue of
     16 flows, the regime a loaded switch sits in.  The paper's constraint:
     "since it must be executed for every packet it must not be so complex
     as to effect overall network performance". *)
  let test name =
    let q = make_qdisc name in
    let clock = ref 0. in
    let seq = ref 0 in
    for i = 0 to 31 do
      ignore
        (q.Ispn_sim.Qdisc.enqueue ~now:0.
           (Ispn_sim.Packet.make ~flow:(i mod 16) ~seq:i ~created:0. ()))
    done;
    Test.make ~name
      (Staged.stage (fun () ->
           clock := !clock +. 1e-4;
           incr seq;
           ignore
             (q.Ispn_sim.Qdisc.enqueue ~now:!clock
                (Ispn_sim.Packet.make ~flow:(!seq mod 16) ~seq:!seq
                   ~created:!clock ()));
           (* Recycle the served packet as a sink would; without the free
              the arena grows by one slot per iteration and the bench
              times arena growth instead of the scheduler. *)
           match q.Ispn_sim.Qdisc.dequeue ~now:!clock with
           | Some p -> Ispn_sim.Packet.free p
           | None -> ()))
  in
  let tests =
    Test.make_grouped ~name:"sched"
      [
        test "FIFO"; test "FIFO+"; test "WFQ"; test "VirtualClock";
        test "DRR"; test "WRR"; test "EDF"; test "Jitter-EDD"; test "HRR";
        test "CBS"; test "ATS"; test "Stop-and-Go"; test "CSZ";
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
    |> List.filter_map (fun (name, v) ->
           match Analyze.OLS.estimates v with
           | Some [ ns ] ->
               Printf.printf "%-22s %8.1f ns per enqueue+dequeue\n" name ns;
               Some (name, ns)
           | Some _ | None ->
               Printf.printf "%-22s (no estimate)\n" name;
               None)
  in
  (* Engine event-loop cost, via the Engine.stats counters, in two
     regimes.  [engine/drain] is a two-deep self-rescheduling chain whose
     events also schedule-then-cancel a decoy, pricing the lazy-deletion
     skip path with almost no standing queue — a comparison heap's best
     case.  [engine/dense] interleaves 256 chains at mixed 1–64 us
     periods, holding a standing population like a loaded simulation;
     this row is where a pending-set structure earns (or loses) its keep,
     and is the one [info.engine_events_per_s] reports. *)
  let run_engine name setup =
    let e = Ispn_sim.Engine.create () in
    let until = setup e in
    let t0 = Unix.gettimeofday () in
    Ispn_sim.Engine.run e ~until;
    let dt = Unix.gettimeofday () -. t0 in
    let st = Ispn_sim.Engine.stats e in
    let total =
      st.Ispn_sim.Engine.events_fired + st.Ispn_sim.Engine.cancels_skipped
    in
    let ns = 1e9 *. dt /. float_of_int total in
    Printf.printf "%-22s %8.1f ns per event (%d fired, %d cancels skipped)\n"
      name ns st.Ispn_sim.Engine.events_fired
      st.Ispn_sim.Engine.cancels_skipped;
    ((name, ns), (1e9 /. ns, Ispn_sim.Engine.heap_depth_hwm e))
  in
  let drain_entry =
    run_engine "engine/drain" (fun e ->
        let n = 200_000 in
        let count = ref 0 in
        let rec act () =
          incr count;
          if !count < n then begin
            ignore (Ispn_sim.Engine.schedule_after e ~delay:1e-6 act);
            let h =
              Ispn_sim.Engine.schedule_after e ~delay:2e-6 (fun () -> ())
            in
            Ispn_sim.Engine.cancel e h
          end
        in
        ignore (Ispn_sim.Engine.schedule_after e ~delay:1e-6 act);
        1.0)
  in
  let dense_entry =
    run_engine "engine/dense" (fun e ->
        let n = 1_600_000 in
        let chains = 256 in
        let count = ref 0 in
        let mk i =
          let delay = float_of_int (1 + ((i * 7) land 63)) *. 1e-6 in
          let rec act () =
            incr count;
            if !count < n then
              ignore (Ispn_sim.Engine.schedule_after e ~delay act)
          in
          act
        in
        for i = 0 to chains - 1 do
          ignore
            (Ispn_sim.Engine.schedule_after e
               ~delay:(float_of_int i *. 1e-6)
               (mk i))
        done;
        10.0)
  in
  (* The sharded engine's per-event price: a 4-switch chain split over 2
     domains, CBR crossing the cut both ways, 1 ms lookahead windows.
     Includes the marshal/re-make exchange and the window barriers, so it
     prices exactly what [scale --shards N] pays over a plain engine. *)
  let sharded_entry =
    let mk_qdisc () =
      Ispn_sched.Fifo.create ~pool:(Ispn_sim.Qdisc.unbounded_pool ()) ()
    in
    let link src dst prop =
      {
        Ispn_sim.Shardnet.l_src = src;
        l_dst = dst;
        l_rate_bps = 1e7;
        l_prop_delay = prop;
        l_qdisc = mk_qdisc;
      }
    in
    let flow f src dst =
      {
        Ispn_sim.Shardnet.f_src = src;
        f_dst = dst;
        f_driver =
          (fun engine emit ->
            let s =
              Ispn_traffic.Cbr.create ~engine ~flow:f ~rate_pps:5000. ~emit ()
            in
            s.Ispn_traffic.Source.start ());
      }
    in
    let spec =
      {
        Ispn_sim.Shardnet.n_switches = 4;
        n_shards = 2;
        shard_of = [| 0; 0; 1; 1 |];
        links =
          [|
            link 0 1 1.0e-4; link 1 0 1.1e-4; link 1 2 1.0e-3;
            link 2 1 1.1e-3; link 2 3 1.2e-4; link 3 2 1.3e-4;
          |];
        flows = [| flow 0 0 3; flow 1 3 0 |];
      }
    in
    let t0 = Unix.gettimeofday () in
    let res = Ispn_sim.Shardnet.run ~until:2.0 spec in
    let dt = Unix.gettimeofday () -. t0 in
    let ns = 1e9 *. dt /. float_of_int res.Ispn_sim.Shardnet.r_fired in
    Printf.printf
      "%-22s %8.1f ns per event (%d fired over %d shards, %d exchanged)\n"
      "engine/sharded" ns res.Ispn_sim.Shardnet.r_fired
      res.Ispn_sim.Shardnet.r_shards res.Ispn_sim.Shardnet.r_drained;
    ("engine/sharded", ns)
  in
  let drain_name_ns, _ = drain_entry in
  let dense_name_ns, (events_per_s, pending_hwm) = dense_entry in
  Printf.printf "%-22s %8.0f events/s dense, pending hwm %d\n" "engine/info"
    events_per_s pending_hwm;
  (* The info.* entries are informational throughput/shape numbers; the CI
     perf gate (ci/check_bench.sh) skips them when looking for ns/packet
     regressions. *)
  (* Control-plane cost, engine time included: one full session lifecycle
     (datagram setup across one link, confirmation, teardown, id recycle)
     and one soft-state refresh pass over a two-hop path — the per-session
     and per-epoch signaling price the churn workload pays ~1M times. *)
  let run_signaling name what iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    let ns = 1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters in
    Printf.printf "%-22s %8.1f ns per %s\n" name ns what;
    (name, ns)
  in
  let setup_entry =
    let e = Ispn_sim.Engine.create () in
    let fab = Csz.Fabric.chain ~engine:e ~n_switches:2 () in
    let sg = Csz.Signaling.deploy ~fabric:fab () in
    let spool = Ispn_util.Idpool.create () in
    let horizon = ref 0. in
    run_signaling "signaling/setup" "session open+close" 20_000 (fun () ->
        let flow = Ispn_util.Idpool.take spool in
        Csz.Signaling.setup sg ~flow ~ingress:0 ~egress:1
          Ispn_admission.Spec.Datagram ~sink:Ispn_sim.Packet.free
          ~on_result:(fun _ -> ());
        horizon := !horizon +. 0.01;
        Ispn_sim.Engine.run e ~until:!horizon;
        Csz.Signaling.teardown sg ~flow;
        Ispn_util.Idpool.release spool ~id:flow)
  in
  let refresh_entry =
    let e = Ispn_sim.Engine.create () in
    let fab = Csz.Fabric.chain ~engine:e ~n_switches:3 () in
    (* A huge interval turns stamping on but keeps the periodic pump and
       sweep out of the measured window. *)
    let sg = Csz.Signaling.deploy ~fabric:fab ~refresh_interval:1e9 () in
    Csz.Signaling.setup sg ~flow:0 ~ingress:0 ~egress:2
      Ispn_admission.Spec.Datagram ~sink:Ispn_sim.Packet.free
      ~on_result:(fun _ -> ());
    Ispn_sim.Engine.run e ~until:0.05;
    let horizon = ref 0.05 in
    run_signaling "signaling/refresh" "refresh pass" 20_000 (fun () ->
        Csz.Signaling.refresh_now sg ~flow:0;
        horizon := !horizon +. 0.01;
        Ispn_sim.Engine.run e ~until:!horizon)
  in
  let entries =
    entries
    @ [
        drain_name_ns;
        dense_name_ns;
        sharded_entry;
        setup_entry;
        refresh_entry;
        ("info.engine_events_per_s", events_per_s);
        ("info.engine_pending_hwm", float_of_int pending_hwm);
      ]
  in
  if !json then begin
    let oc = open_out "BENCH_micro.json" in
    output_string oc "{\n";
    let last = List.length entries - 1 in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "  %S: %.1f%s\n" name ns (if i = last then "" else ","))
      entries;
    output_string oc "}\n";
    close_out oc;
    Printf.eprintf "wrote BENCH_micro.json\n%!"
  end;
  print_endline
    "\nShape to check: every scheduler's per-packet cost is far below a\n\
     1 ms packet transmission time — cheap enough to run at every switch\n\
     for every packet (the Section 1 constraint); the time-stamp schedulers\n\
     cost a small multiple of FIFO."

(* ---- main ---------------------------------------------------------------- *)

(* Section outputs accumulate in run order; their snapshots and timelines
   are written once at exit, and stdout never mentions the files. *)
let outputs = ref []

let run_entry (s : Section.t) () =
  let c = !ctx in
  let c =
    match s.Section.cap with
    | Some cap -> { c with Section.duration = Float.min c.Section.duration cap }
    | None -> c
  in
  let o =
    try s.Section.run c
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  print_string o.Section.text;
  outputs := o :: !outputs

let sections =
  List.map (fun (s : Section.t) -> (s.Section.name, run_entry s)) Section.all
  @ [ ("micro", micro) ]

let section name f =
  Printf.printf "\n%s\n%s\n" name (String.make (String.length name) '=');
  let t0 = Unix.gettimeofday () in
  f ();
  (* Host time is nondeterministic; stderr keeps stdout reproducible.  The
     line names both parallelism widths — the pool fan-out (-j) and the
     intra-simulation sharding (--shards) — so A/B timing runs are
     self-describing. *)
  Printf.eprintf "[%s done in %.1fs of host time; jobs=%d shards=%d]\n%!" name
    (Unix.gettimeofday () -. t0)
    !ctx.Section.jobs !ctx.Section.shards

let positive flag n set =
  match Section.positive_int n with
  | Ok n -> set n
  | Error msg ->
      Printf.eprintf "%s: %s\n" flag msg;
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse args acc =
    match args with
    | [] -> List.rev acc
    | "--fast" :: rest ->
        ctx := { !ctx with duration = 60. };
        parse rest acc
    | "--json" :: rest ->
        json := true;
        parse rest acc
    | [
        ( "--metrics" | "--series" | "-j" | "--jobs" | "--shards"
        | "--trace-cap" ) as flag;
      ] ->
        Printf.eprintf "%s expects an argument\n" flag;
        exit 2
    | "--metrics" :: file :: rest ->
        metrics_file := Some file;
        parse rest acc
    | "--series" :: file :: rest ->
        series_file := Some file;
        ctx := { !ctx with series = true };
        parse rest acc
    | ("--trace-cap" as flag) :: n :: rest ->
        positive flag n (fun n -> ctx := { !ctx with trace_cap = Some n });
        parse rest acc
    | "--debug" :: rest ->
        debug := true;
        parse rest acc
    | "--check" :: rest ->
        ctx := { !ctx with check = true };
        parse rest acc
    | (("-j" | "--jobs") as flag) :: n :: rest ->
        positive flag n (fun n -> ctx := { !ctx with jobs = n });
        parse rest acc
    | ("--shards" as flag) :: n :: rest ->
        positive flag n (fun n -> ctx := { !ctx with shards = n });
        parse rest acc
    | name :: rest -> parse rest (name :: acc)
  in
  let wanted = parse args [] in
  ctx := { !ctx with metrics = !metrics_file <> None || !debug };
  let to_run =
    if wanted = [] then sections
    else
      List.map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> (name, f)
          | None ->
              Printf.eprintf "unknown section %S; available: %s\n" name
                (String.concat ", " (List.map fst sections));
              exit 2)
        wanted
  in
  if !debug then Ispn_util.Log.setup ~level:Logs.Debug ();
  Printf.printf
    "CSZ SIGCOMM'92 reproduction benches — %.0f s simulated per run, seed \
     %Ld\n"
    !ctx.Section.duration !ctx.Section.seed;
  List.iter (fun (name, f) -> section name f) to_run;
  Section.conclude ?metrics_file:!metrics_file ?series_file:!series_file
    (List.rev !outputs)
