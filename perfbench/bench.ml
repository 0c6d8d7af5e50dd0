(* perfbench: host cost per simulated packet-hop on three workloads.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--length full|tiny] [--pin DIGEST]

   Workloads (simulated lengths in [workloads] below), each timed on one
   domain; the two-domain form of the same simulation is a cross-check
   and a per-layer rung:
   - csz-table3     Experiment.run_table3: the paper's unified CSZ scheduler
                    on the Figure-1 chain at ~99% load.
   - parking-lot    Extensions.run_scale ~shards:1 (rung: ~shards:2): 2000
                    on/off flows on a 20-switch FIFO parking lot.
   - churn-audited  Extensions.run_churn ~check:true ~j:1 (rung: ~j:2):
                    soft-state session churn, four fault scenarios.

   With [--trace 0] the workload's runner is called back to back for
   [--seconds] with no observability hooks, and the end-to-end metrics are
   medians over those runs.  Set-up time is the median of runs at a
   near-zero simulated length (topology, qdiscs, sources, domain spawn,
   and result extraction of an empty run), interleaved with the timed
   runs.  Packet-hop and event counts are deterministic per (workload,
   seed, length) and come from one untimed counting run whose result
   digest must match the timed runs.

   With [--trace 1] the same untimed reference runs are made, then one run
   with spans recorded in memory around the calls into each layer, and the
   per-layer metrics are derived from the spans and from counters read
   after the run.  Spans are written to perfbench/_out/ when it ends.

   Every run is checked: it fails when it raises, when its result digest
   differs from the other runs of the same inputs (or, at the default seed
   and full length, from the digest pinned below), or when an audit
   reports a violation.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module E = Csz.Experiment
module X = Csz.Extensions

(* --- Result digests ------------------------------------------------------ *)

(* The digest covers typed simulation results only, never host timing. *)
let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let default_seed = 1

(* Pinned for [--seed 1] at full length.  Re-pinning is a visible diff. *)
let pinned = function
  | "csz-table3" -> "cf051a97adf0bed580118672a572adbd"
  | "parking-lot" -> "162d61be807a95028e4afa55adf811fc"
  | "churn-audited" -> "d240440a996b5c5af4b134e4cc7c3cdf"
  | _ -> ""

let t3_digest (r : E.t3_result) = digest r

(* The fields of a scale report that the determinism contract says are
   identical at every shard count. *)
let scale_digest (r : X.scale_report) =
  digest
    ( r.X.sc_rows,
      r.X.sc_switches,
      r.X.sc_links,
      r.X.sc_flow_count,
      r.X.sc_delivered_total,
      r.X.sc_sent,
      r.X.sc_dropped )

let churn_digest (rows : X.churn_row list) =
  digest (List.map (fun r -> { r with X.ch_series = None }) rows)

(* --- Workloads ----------------------------------------------------------- *)

(* What one untraced run yields besides its host cost. *)
type outcome = {
  o_digest : string;
  o_problems : string list;  (** Invariant failures in the result. *)
  o_info : (string * float) list;  (** Per-workload counters. *)
}

(* The untimed counting run: deterministic counts plus a cross-check. *)
type counted = {
  c_digest : string;  (** Must equal the timed runs' digest. *)
  c_hops : int;  (** Link transmissions. *)
  c_events : int;  (** Engine events fired. *)
  c_skipped : int;  (** Cancelled events discarded; 0 where not observable. *)
  c_pending_hwm : int;
  c_checks : int;  (** Audit checks made. *)
  c_violations : int;
  c_made : int;  (** Arena makes; 0 where not observable. *)
  c_arena_hwm : int;
}

type workload = {
  name : string;
  full : float;  (** Simulated seconds per run. *)
  tiny : float;  (** For the self-test. *)
  run : seed:int64 -> duration:float -> outcome;
  cross : (seed:int64 -> duration:float -> outcome) option;
      (** The same simulation on two domains; its digest must match. *)
  count : seed:int64 -> duration:float -> counted;
}

(* A near-zero simulated length: the runner builds everything, fires at
   most the events due at t = 0, and extracts an empty result. *)
let setup_len = 1e-6

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let problems checks = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks

let table3 =
  let run ~seed ~duration =
    let r = E.run_table3 ~duration ~seed () in
    {
      o_digest = t3_digest r;
      o_problems =
        problems
          [
            (List.length r.E.rows = 8, "table3: expected 8 sample rows");
            (r.E.info.E.offered > 0, "table3: no traffic offered");
          ];
      o_info = [];
    }
  in
  let count ~seed ~duration =
    let m = Ispn_obs.Metrics.create () in
    let a = Ispn_check.Audit.create () in
    let base = Ispn_sim.Packet.pool_stats () in
    let r = E.run_table3 ~duration ~seed ~metrics:m ~audit:a () in
    let ps = Ispn_sim.Packet.pool_stats () in
    let s = Ispn_check.Audit.finalize a in
    let snap = Ispn_obs.Metrics.snapshot m in
    let int_of name =
      match List.assoc_opt name snap with
      | Some (Ispn_obs.Metrics.Int i) -> i
      | Some (Ispn_obs.Metrics.Float f) -> int_of_float f
      | None -> 0
    in
    let hops = ref 0 in
    List.iter
      (fun (name, _) ->
        if String.length name > 5 && String.sub name 0 5 = "link."
           && Filename.extension name = ".sent"
        then hops := !hops + int_of name)
      snap;
    {
      c_digest = t3_digest r;
      c_hops = !hops;
      c_events = int_of "engine.events_fired";
      c_skipped = int_of "engine.cancels_skipped";
      c_pending_hwm = int_of "engine.heap_depth_hwm";
      c_checks = s.Ispn_check.Audit.checks;
      c_violations = s.Ispn_check.Audit.violations;
      c_made = ps.Ispn_sim.Packet.p_takes - base.Ispn_sim.Packet.p_takes;
      c_arena_hwm = ps.Ispn_sim.Packet.p_hwm;
    }
  in
  {
    name = "csz-table3";
    full = 120.;
    tiny = 2.;
    run;
    cross = None;
    count;
  }

let scale_problems (r : X.scale_report) =
  problems [ (r.X.sc_delivered_total > 0, "parking-lot: nothing delivered") ]

let scale_run ~shards ~seed ~duration =
  let r = X.run_scale ~duration ~seed ~shards () in
  { o_digest = scale_digest r; o_problems = scale_problems r; o_info = [] }

let parking_lot =
  let count ~seed ~duration =
    let r = X.run_scale ~duration ~seed ~shards:1 ~check:true () in
    let s = Option.get r.X.sc_check in
    {
      c_digest = scale_digest r;
      c_hops = r.X.sc_sent;
      c_events = r.X.sc_fired;
      c_skipped = 0;
      c_pending_hwm = 0;
      c_checks = s.Ispn_check.Audit.checks;
      c_violations =
        s.Ispn_check.Audit.violations + List.length (scale_problems r);
      c_made = 0;
      c_arena_hwm = 0;
    }
  in
  {
    name = "parking-lot";
    full = 10.;
    tiny = 0.5;
    run = scale_run ~shards:1;
    cross = Some (scale_run ~shards:2);
    count;
  }

let churn_info rows =
  let fsum f = float_of_int (sum f rows) in
  [
    ("sessions", fsum (fun r -> r.X.ch_offered));
    ("established", fsum (fun r -> r.X.ch_established));
    ("recycled", fsum (fun r -> r.X.ch_recycled));
    ( "ctrl_pps",
      List.fold_left (fun acc r -> acc +. r.X.ch_signaling_pps) 0. rows );
    ( "audit_checks",
      fsum (fun r ->
          match r.X.ch_check with Some s -> s.Ispn_check.Audit.checks | None -> 0) );
  ]

let churn_problems rows =
  List.concat_map
    (fun r ->
      let name = X.churn_name r.X.ch_scenario in
      problems
        [
          (r.X.ch_leaked = 0, "churn " ^ name ^ ": leaked reservations");
          ( (match r.X.ch_check with
            | Some s -> s.Ispn_check.Audit.violations = 0
            | None -> true),
            "churn " ^ name ^ ": audit violations" );
          (r.X.ch_offered > 0, "churn " ^ name ^ ": no sessions offered");
        ])
    rows

let churn_run ?(check = true) ~j ~seed ~duration () =
  let rows = X.run_churn ~duration ~seed ~j ~check () in
  {
    o_digest = (if check then churn_digest rows else "");
    o_problems = churn_problems rows;
    o_info = churn_info rows;
  }

let churn =
  let count ~seed ~duration =
    (* With a two-sample series for the engine and link counters; the
       digest (series stripped) must equal the plain runs'. *)
    let base = Ispn_sim.Packet.pool_stats () in
    let rows =
      X.run_churn ~duration ~seed ~j:1 ~check:true ~series_interval:duration ()
    in
    let ps = Ispn_sim.Packet.pool_stats () in
    let last name (ex : Ispn_obs.Series.export) =
      match List.assoc_opt name ex.Ispn_obs.Series.ex_columns with
      | Some col when Array.length col > 0 -> col.(Array.length col - 1)
      | _ -> 0.
    in
    let hops = ref 0. and events = ref 0 and skipped = ref 0 and hwm = ref 0 in
    List.iter
      (fun r ->
        match r.X.ch_series with
        | None -> ()
        | Some ex ->
            List.iter
              (fun (name, _) ->
                if Filename.extension name = ".sent" then
                  hops := !hops +. last name ex)
              ex.Ispn_obs.Series.ex_columns;
            (* Sampler ticks are engine events too; take them out. *)
            events :=
              !events
              + int_of_float (last "engine.events_fired" ex)
              - Array.length ex.Ispn_obs.Series.ex_times;
            skipped :=
              !skipped + int_of_float (last "engine.cancels_skipped" ex);
            hwm := max !hwm (int_of_float (last "engine.heap_depth_hwm" ex)))
      rows;
    let checks, violations =
      List.fold_left
        (fun (c, v) r ->
          match r.X.ch_check with
          | Some s -> (c + s.Ispn_check.Audit.checks, v + s.Ispn_check.Audit.violations)
          | None -> (c, v))
        (0, 0) rows
    in
    {
      c_digest = churn_digest rows;
      c_hops = int_of_float !hops;
      c_events = !events;
      c_skipped = !skipped;
      c_pending_hwm = !hwm;
      c_checks = checks;
      c_violations = violations + List.length (churn_problems rows);
      c_made = ps.Ispn_sim.Packet.p_takes - base.Ispn_sim.Packet.p_takes;
      c_arena_hwm = ps.Ispn_sim.Packet.p_hwm;
    }
  in
  {
    name = "churn-audited";
    full = 30.;
    tiny = 1.;
    run = (fun ~seed ~duration -> churn_run ~j:1 ~seed ~duration ());
    cross = Some (fun ~seed ~duration -> churn_run ~j:2 ~seed ~duration ());
    count;
  }

let workloads = [ table3; parking_lot; churn ]

(* --- Measurement --------------------------------------------------------- *)

type sample = {
  wall : float;  (** s *)
  cpu : float;  (** s, user + sys over all domains *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  result : (outcome, string) result;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One run from a collected heap, so runs do not inherit each other's
   garbage. *)
let measure f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = Span.now () in
  let result =
    try Ok (f ()) with e -> Error (Printexc.to_string e)
  in
  let t1 = Span.now () in
  let c1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  {
    wall = float_of_int (t1 - t0) *. 1e-9;
    cpu = c1 -. c0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    result;
  }

(* A set-up sample: calls back to back from a collected heap until
   [setup_batch_s] has passed, timed together and divided by the count, so
   a call of a few microseconds is not lost in timer and cache noise. *)
let setup_batch_s = 2e-3

let measure_setup f =
  Gc.full_major ();
  let t0 = Span.now () in
  let rec go n =
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let dt = float_of_int (Span.now () - t0) *. 1e-9 in
    match r with
    | Ok _ when dt < setup_batch_s -> go (n + 1)
    | _ -> (dt /. float_of_int n, r)
  in
  let wall, result = go 1 in
  { wall; cpu = 0.; minor_words = 0.; promoted_words = 0.; minor_gcs = 0;
    major_gcs = 0; result }

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Run [f] back to back until [seconds] have passed (at least [min_runs]
   times), calling [before] ahead of each run, outside its measurement. *)
let repeat ?(before = ignore) ~seconds ~min_runs f =
  let start = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min_runs && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else begin
      before ();
      go (measure f :: acc) (n + 1)
    end
  in
  go [] 0

(* --- Correctness ledger -------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

(* Count a run and check it: no exception, no invariant failure (unless
   [lenient], for the near-empty set-up runs), and its digest equal to
   [expect] when one is given. *)
let audit_run ?(lenient = false) ~what ?expect (s : sample) =
  incr attempted;
  match s.result with
  | Error e -> fail "%s raised %s" what e
  | Ok o -> (
      match o.o_problems with
      | p :: _ when not lenient -> fail "%s: %s" what p
      | _ -> (
          match expect with
          | Some d when d <> o.o_digest ->
              fail "%s: digest %s, expected %s" what o.o_digest d
          | _ -> ()))

let digest_of (s : sample) =
  match s.result with Ok o -> o.o_digest | Error _ -> ""

(* --- Host record --------------------------------------------------------- *)

let loadavg () =
  try
    let ic = open_in "/proc/loadavg" in
    let l = input_line ic in
    close_in ic;
    match String.split_on_char ' ' l with
    | a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c
    | _ -> l
  with Sys_error _ | End_of_file -> "unknown"

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- Output -------------------------------------------------------------- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* --- Modes --------------------------------------------------------------- *)

type args = {
  wl : workload;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  pin : string option;
}

(* Set-up runs are interleaved with the timed runs, [setup_per_run]
   before each, so both see the same stretch of host time. *)
let setup_per_run = 3

let expected_digest a first =
  match a.pin with
  | Some p -> p
  | None -> if a.seed = default_seed && not a.tiny then pinned a.wl.name else first

let check_counted ~expect (c : (counted, string) result) =
  incr attempted;
  match c with
  | Error e -> fail "counting run raised %s" e
  | Ok c ->
      if c.c_digest <> expect then
        fail "counting run: digest %s, expected %s" c.c_digest expect
      else if c.c_violations > 0 then
        fail "counting run: %d audit violations" c.c_violations

let run_counted a ~seed ~duration =
  try Ok (a.wl.count ~seed ~duration) with e -> Error (Printexc.to_string e)

let counts = function
  | Ok c -> c
  | Error _ ->
      { c_digest = ""; c_hops = 0; c_events = 0; c_skipped = 0;
        c_pending_hwm = 0; c_checks = 0;
        c_violations = 0; c_made = 0; c_arena_hwm = 0 }

let med f l = median (List.map f l)

let end_to_end a =
  let w = a.wl in
  let seed = Int64.of_int a.seed in
  let duration = if a.tiny then w.tiny else w.full in
  (* The heap's high-water mark is read after the first run, before any
     set-up batch piles up garbage of its own; on one domain the GC's
     pacing, and so the peak, repeats from run to run. *)
  let first = measure (fun () -> w.run ~seed ~duration) in
  let heap = peak_heap_mb () in
  let setups = ref [] in
  let timed =
    first
    :: repeat
         ~seconds:(a.seconds -. first.wall)
         ~min_runs:2
         ~before:(fun () ->
           for _ = 1 to setup_per_run do
             setups :=
               measure_setup (fun () -> w.run ~seed ~duration:setup_len)
               :: !setups
           done)
         (fun () -> w.run ~seed ~duration)
  in
  let setups = !setups in
  List.iter (audit_run ~lenient:true ~what:"set-up run") setups;
  let expect = expected_digest a (digest_of (List.hd timed)) in
  List.iteri
    (fun i s -> audit_run ~what:(Printf.sprintf "timed run %d" i) ~expect s)
    timed;
  Option.iter
    (fun cross ->
      audit_run ~what:"two-domain run" ~expect
        (measure (fun () -> cross ~seed ~duration)))
    w.cross;
  let c = run_counted a ~seed ~duration in
  check_counted ~expect c;
  let c = counts c in
  let hops = fi c.c_hops in
  let wall = med (fun s -> s.wall) timed in
  Printf.printf "runs %d  hops %d  events %d  digest %s\nwalls %s\n"
    (List.length timed) c.c_hops c.c_events expect
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" s.wall) timed));
  [
    ("wall_s", wall, "s");
    ("setup_s", med (fun s -> s.wall) setups, "s");
    ("cpu_s", med (fun s -> s.cpu) timed, "s");
    ("ns_per_hop", 1e9 *. ratio wall hops, "ns");
    ("minor_words_per_hop", ratio (med (fun s -> s.minor_words) timed) hops, "words");
    ("peak_heap_mb", heap, "MiB");
    ("ok_frac", 1. -. ratio (fi !failed) (fi !attempted), "ratio");
  ]

(* Facts gathered from a traced run, by name; absent ones read 0. *)
let scale_facts (r : Traced.scale) =
  let ev =
    Array.map (fun s -> fi s.Ispn_sim.Engine.events_fired) r.Traced.sc_engines
  in
  let total = Array.fold_left ( +. ) 0. ev in
  [
    ("events", total);
    ( "skipped",
      Array.fold_left
        (fun acc s -> acc +. fi s.Ispn_sim.Engine.cancels_skipped)
        0. r.Traced.sc_engines );
    ("pending_hwm", fi r.Traced.sc_pending_hwm);
    ("remade", fi r.Traced.sc_remade);
    ("arena_hwm", fi r.Traced.sc_arena_hwm);
    ("windows", fi r.Traced.sc.X.sc_windows);
    ("exchanged", fi r.Traced.sc.X.sc_exchanged);
    ("event_imbalance", ratio (Array.fold_left max 0. ev) (total /. fi (Array.length ev)));
  ]

let traced_run a ~seed ~duration =
  match a.wl.name with
  | "csz-table3" ->
      let r = Traced.table3 ~duration ~seed in
      let st = Ispn_sim.Engine.stats r.Traced.t3_engine in
      ( t3_digest r.Traced.t3,
        [
          ("events", fi st.Ispn_sim.Engine.events_fired);
          ("skipped", fi st.Ispn_sim.Engine.cancels_skipped);
          ("pending_hwm", fi (Ispn_sim.Engine.heap_depth_hwm r.Traced.t3_engine));
          ( "retransmit_frac",
            ratio (fi r.Traced.t3_retransmissions) (fi r.Traced.t3_segments) );
          ( "policed_frac",
            ratio
              (fi r.Traced.t3.E.info.E.source_dropped)
              (fi r.Traced.t3.E.info.E.offered) );
        ] )
  | "parking-lot" ->
      let r = Traced.scale ~duration ~seed ~shards:1 in
      (scale_digest r.Traced.sc, scale_facts r)
  | _ ->
      (* The churn runner builds its engines inside pool jobs; only the
         runner call itself is wrapped. *)
      let b = Span.cur () in
      let s = Span.enter b Span.run in
      let o = churn_run ~j:1 ~seed ~duration () in
      Span.leave b s;
      (o.o_digest, [])

let per_layer a =
  let w = a.wl in
  let seed = Int64.of_int a.seed in
  let duration = if a.tiny then w.tiny else w.full in
  (* Counting run first: runs leave their in-flight packets allocated, so
     the main domain's arena high-water mark is one run's only here. *)
  let c0 = run_counted a ~seed ~duration in
  let untraced =
    repeat ~seconds:a.seconds ~min_runs:3 (fun () -> w.run ~seed ~duration)
  in
  let expect = expected_digest a (digest_of (List.hd untraced)) in
  List.iteri
    (fun i s -> audit_run ~what:(Printf.sprintf "untraced run %d" i) ~expect s)
    untraced;
  check_counted ~expect c0;
  let c = counts c0 in
  let hops = fi c.c_hops in
  let wall = med (fun s -> s.wall) untraced in
  (* The traced run. *)
  Span.reset ();
  Gc.full_major ();
  let t0 = Span.now () in
  let traced =
    try Ok (traced_run a ~seed ~duration) with e -> Error (Printexc.to_string e)
  in
  let traced_wall = float_of_int (Span.now () - t0) *. 1e-9 in
  incr attempted;
  let tdigest, facts =
    match traced with
    | Error e ->
        fail "traced run raised %s" e;
        ("", [])
    | Ok (d, f) ->
        if d <> expect then fail "traced run: digest %s, expected %s" d expect;
        (d, f)
  in
  let sm = Span.analyse () in
  (try
     if not (Sys.file_exists "perfbench/_out") then Sys.mkdir "perfbench/_out" 0o755;
     Span.write
       (Printf.sprintf "perfbench/_out/%s.spans" w.name)
       ~run_id:(Printf.sprintf "%s-seed%d-%d" w.name a.seed (Unix.getpid ()))
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  let bufs = Span.buffers () in
  let bsum f = Array.fold_left (fun acc b -> acc + f b) 0 bufs in
  let bmax f = Array.fold_left (fun acc b -> max acc (f b)) 0 bufs in
  let empty_dequeues = bsum (fun b -> b.Span.empty_dequeues) in
  let drops = bsum (fun b -> b.Span.drops) in
  let depth_hwm = bmax (fun b -> b.Span.depth_hwm) in
  Span.reset ();
  let fact k = Option.value ~default:0. (List.assoc_opt k facts) in
  let cnt n = fi sm.Span.count.(n) and self n = sm.Span.self_ns.(n) in
  let all_self = Array.fold_left ( +. ) 0. sm.Span.self_ns in
  (* Unwrapped residual: engine dispatch plus link and node forwarding. *)
  let residual, residual_base =
    match w.name with
    | "csz-table3" -> (self Span.engine_run, sm.Span.root_ns)
    | "parking-lot" -> (self Span.shard_windows, sm.Span.total_ns.(Span.shard_windows))
    | _ -> (self Span.run, sm.Span.root_ns)
  in
  let traced_engine = fact "events" > 0. in
  let events = if traced_engine then fact "events" else fi c.c_events in
  let skipped = if traced_engine then fact "skipped" else fi c.c_skipped in
  let pending_hwm =
    if traced_engine then fact "pending_hwm" else fi c.c_pending_hwm
  in
  let qops = cnt Span.enqueue +. cnt Span.dequeue in
  let qself = self Span.enqueue +. self Span.dequeue in
  let made =
    if w.name = "parking-lot" then cnt Span.emit +. fact "remade"
    else fi c.c_made
  in
  let arena_hwm =
    if fact "arena_hwm" > 0. then fact "arena_hwm" else fi c.c_arena_hwm
  in
  let sinks = cnt Span.sink_probe +. cnt Span.sink_tcp in
  (* Rungs: the same workload with one part switched, three runs each. *)
  let rung f =
    let l = List.init 3 (fun _ -> measure f) in
    List.iter (audit_run ~what:"rung run") l;
    l
  in
  let two_domains =
    match w.cross with
    | Some cross ->
        let l = List.init 3 (fun _ -> measure (fun () -> cross ~seed ~duration)) in
        List.iter (audit_run ~what:"two-domain run" ~expect) l;
        l
    | None -> []
  in
  let wall2 = med (fun s -> s.wall) two_domains in
  let cpu_per_wall2 = ratio (med (fun s -> s.cpu) two_domains) wall2 in
  let no_audit =
    if w.name = "churn-audited" then
      rung (fun () -> churn_run ~check:false ~j:1 ~seed ~duration ())
    else []
  in
  (* The shard layer at two shards, traced for per-shard engine counts. *)
  let shard_facts =
    if w.name <> "parking-lot" then []
    else begin
      incr attempted;
      match Traced.scale ~duration ~seed ~shards:2 with
      | r ->
          Span.reset ();
          if scale_digest r.Traced.sc <> expect then
            fail "two-shard traced run: digest mismatch";
          scale_facts r
      | exception e ->
          fail "two-shard traced run raised %s" (Printexc.to_string e);
          []
    end
  in
  let shard k = Option.value ~default:0. (List.assoc_opt k shard_facts) in
  let info k =
    match (List.hd untraced).result with
    | Ok o -> Option.value ~default:0. (List.assoc_opt k o.o_info)
    | Error _ -> 0.
  in
  let sessions = info "sessions" in
  let additivity =
    ratio (Float.abs (sm.Span.attributed_ns -. sm.Span.root_ns)) sm.Span.root_ns
  in
  if additivity > 1e-6 then
    fail "span self-times plus residual miss the run span by %.3g" additivity;
  Printf.printf
    "traced digest %s  untraced %s  wall %.3f s traced / %.3f s untraced\n"
    tdigest expect traced_wall wall;
  [
    ("engine.events", events, "count");
    ("engine.events_per_hop", ratio events hops, "ratio");
    ("engine.cancel_share", ratio skipped (events +. skipped), "ratio");
    ("engine.pending_hwm", pending_hwm, "count");
    ("engine.self_ns_per_event", ratio residual events, "ns");
    ("qdisc.ops", qops, "count");
    ("qdisc.self_ns_per_op", ratio qself qops, "ns");
    ("qdisc.share", ratio qself all_self, "ratio");
    ("qdisc.empty_dequeue_share", ratio (fi empty_dequeues) (cnt Span.dequeue), "ratio");
    ("qdisc.depth_hwm", fi depth_hwm, "count");
    ("qdisc.drops", fi drops, "count");
    ("traffic.generated", cnt Span.emit, "count");
    ("traffic.policed_frac", fact "policed_frac", "ratio");
    ( "traffic.self_ns_per_pkt",
      ratio (self Span.emit +. self Span.tcp_send) (cnt Span.emit +. cnt Span.tcp_send),
      "ns" );
    ("arena.made_per_hop", ratio made hops, "ratio");
    ("arena.hwm", arena_hwm, "count");
    ("sink.self_ns_per_pkt", ratio (self Span.sink_probe +. self Span.sink_tcp) sinks, "ns");
    ("tcp.retransmit_frac", fact "retransmit_frac", "ratio");
    ("shardnet.windows", shard "windows", "count");
    ("shardnet.exchanged_per_window", ratio (shard "exchanged") (shard "windows"), "count");
    ("shardnet.event_imbalance", shard "event_imbalance", "ratio");
    ( "shardnet.speedup",
      (if w.name = "parking-lot" then ratio wall wall2 else 0.),
      "ratio" );
    ( "shardnet.cpu_per_wall",
      (if w.name = "parking-lot" then cpu_per_wall2 else 0.),
      "ratio" );
    ("signaling.sessions", sessions, "count");
    ("signaling.established_frac", ratio (info "established") sessions, "ratio");
    ( "signaling.ctrl_pkts_per_session",
      ratio (info "ctrl_pps" *. duration) sessions,
      "count" );
    ("signaling.ns_per_session", 1e9 *. ratio wall sessions, "ns");
    ("idpool.recycled_frac", ratio (info "recycled") sessions, "ratio");
    ( "audit.checks",
      (if info "audit_checks" > 0. then info "audit_checks" else fi c.c_checks),
      "count" );
    ( "audit.overhead_frac",
      (match no_audit with
      | [] -> 0.
      | l -> (wall /. med (fun s -> s.wall) l) -. 1.),
      "ratio" );
    ( "pool.speedup",
      (if w.name = "churn-audited" then ratio wall wall2 else 0.),
      "ratio" );
    ("gc.minor_collections", med (fun s -> fi s.minor_gcs) untraced, "count");
    ("gc.major_collections", med (fun s -> fi s.major_gcs) untraced, "count");
    ( "gc.promoted_words_per_hop",
      ratio (med (fun s -> s.promoted_words) untraced) hops,
      "words" );
    ("trace.overhead_frac", (traced_wall /. wall) -. 1., "ratio");
    ("trace.digest_match", (if tdigest = expect then 1. else 0.), "ratio");
    ("trace.additivity_error", additivity, "ratio");
    ("trace.residual_frac", ratio residual residual_base, "ratio");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--length full|tiny] [--pin DIGEST]\n\
     workloads: csz-table3 parking-lot churn-audited";
  exit 2

let parse argv =
  let wl = ref None and seed = ref default_seed and seconds = ref 10.
  and trace = ref false and tiny = ref false and pin = ref None in
  let rec go = function
    | "--workload" :: v :: r ->
        (match List.find_opt (fun w -> w.name = v) workloads with
        | Some w -> wl := Some w
        | None ->
            Printf.eprintf "unknown workload %S\n" v;
            usage ());
        go r
    | "--seed" :: v :: r ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        go r
    | "--seconds" :: v :: r ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go r
    | "--trace" :: ("0" | "1" as v) :: r ->
        trace := v = "1";
        go r
    | "--length" :: ("full" | "tiny" as v) :: r ->
        tiny := v = "tiny";
        go r
    | "--pin" :: v :: r ->
        pin := Some v;
        go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match !wl with
  | None -> usage ()
  | Some wl ->
      { wl; seed = !seed; seconds = !seconds; trace = !trace; tiny = !tiny;
        pin = !pin }

let () =
  let a = parse Sys.argv in
  let load_start = loadavg () in
  let metrics = if a.trace then per_layer a else end_to_end a in
  Printf.printf
    "host nproc=%d ocaml=%s load_start=%s load_end=%s workload=%s seed=%d \
     length=%g\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version load_start (loadavg ()) a.wl.name a.seed
    (if a.tiny then a.wl.tiny else a.wl.full);
  (* A printed result is a completed run, correct or not: "correct" and
     "failed" carry the verdict. *)
  print_result metrics
