module E = Experiment
module X = Extensions
module Audit = Ispn_check.Audit
module Metrics = Ispn_obs.Metrics
module Series = Ispn_obs.Series
module Table = Ispn_util.Table

type ctx = {
  duration : float;
  seed : int64;
  jobs : int;
  shards : int;
  avg_rate : float;
  verbose : bool;
  check : bool;
  metrics : bool;
  series : bool;
  trace_cap : int option;
}

let default_ctx =
  {
    duration = Ispn_util.Units.sim_duration_s;
    seed = 42L;
    jobs = Ispn_exec.Pool.default_jobs ();
    shards = 1;
    avg_rate = Scenario.default_avg_rate_pps;
    verbose = false;
    check = false;
    metrics = false;
    series = false;
    trace_cap = None;
  }

type param =
  | Duration | Fast | Seed | Jobs | Shards | Avg_rate | Verbose | Debug
  | Check | Metrics | Series | Trace_cap

type output = {
  text : string;
  snapshots : (string * Metrics.snapshot) list;
  exports : (string * Series.export) list;
  checks : (string * Audit.summary) list;
}

type t = {
  name : string;
  doc : string;
  params : param list;
  cap : float option;
  run : ctx -> output;
}

let violations o =
  List.fold_left (fun acc (_, s) -> acc + s.Audit.violations) 0 o.checks

let conclude ?metrics_file ?series_file outputs =
  let write what path =
    what path;
    Printf.eprintf "wrote %s\n%!" path
  in
  let cat f = List.concat_map f outputs in
  Option.iter
    (write (fun p -> Metrics.write_file p (cat (fun o -> o.snapshots))))
    metrics_file;
  Option.iter
    (write (fun p -> Series.write_file p (cat (fun o -> o.exports))))
    series_file;
  let v = List.fold_left (fun acc o -> acc + violations o) 0 outputs in
  if v > 0 then begin
    Printf.eprintf "--check found %d invariant violation(s)\n%!" v;
    exit 1
  end

let positive_int s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "'%s' is not a positive integer" s)

let positive_float s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f > 0. -> Ok f
  | _ -> Error (Printf.sprintf "'%s' is not a positive finite number" s)

(* ---- per-job instrumentation -------------------------------------------- *)

(* A job running under Pool.map builds its own registry so domains never
   share one, and reduces it to plain labelled data before returning; the
   parts are concatenated in canonical job order, so every byte of output
   is -j-independent.  --series needs a registry to sample even when
   --metrics is off; series and hist share it, so a --metrics run also gets
   the histogram percentiles in its footers. *)
type job = {
  j_metrics : Metrics.t option;
  j_series : Series.t option;
  j_hist : Ispn_obs.Hist.t option;
  j_audit : Audit.t option;
}

let job ctx =
  let j_metrics =
    if ctx.metrics || ctx.series then Some (Metrics.create ()) else None
  in
  let j_series, j_hist =
    match j_metrics with
    | Some metrics when ctx.series ->
        let s = Series.create ~metrics () in
        (Some s, Some (Ispn_obs.Hist.create ~metrics ()))
    | _ -> (None, None)
  in
  let j_audit = if ctx.check then Some (Audit.create ()) else None in
  { j_metrics; j_series; j_hist; j_audit }

let labelled label = function Some x -> [ (label, x) ] | None -> []

(* The labelled extras a runner returned inside its rows. *)
let per_row label field rows =
  List.concat_map (fun r -> labelled (label r) (field r)) rows

let harvest ctx ~label j =
  {
    text = "";
    snapshots =
      (if ctx.metrics then
         labelled label (Option.map Metrics.snapshot j.j_metrics)
       else []);
    exports =
      labelled label (Option.map (Series.export ?hist:j.j_hist) j.j_series);
    checks = labelled label (Option.map Audit.finalize j.j_audit);
  }

(* The section's stdout: body, [obs] footers, [check] footers, then the
   paper reference / shape note after a blank line.  The extras come from
   harvested pool jobs ([parts]) or straight from a runner's rows. *)
let finish ?(parts = []) ?(snapshots = []) ?(exports = []) ?(checks = [])
    ?(note = "") body =
  let cat extra f = extra @ List.concat_map f parts in
  let snapshots = cat snapshots (fun o -> o.snapshots) in
  let checks = cat checks (fun o -> o.checks) in
  let footers =
    List.concat_map
      (fun (label, s) ->
        List.map (fun l -> l ^ "\n") (Audit.footer_lines ~label s))
      checks
  in
  let note = if note = "" then "" else "\n" ^ note ^ "\n" in
  {
    text =
      String.concat ""
        ((body :: Report.obs_footer snapshots :: footers) @ [ note ]);
    snapshots;
    exports = cat exports (fun o -> o.exports);
    checks;
  }

let lines f rows = String.concat "" (List.map f rows)
let pct x = 100. *. x

(* ---- the paper's tables ------------------------------------------------- *)

let info_line (info : E.run_info) =
  Printf.sprintf
    "\nLinks at %s; %d offered, %d source-dropped (%.2f%%), %d buffer drops\n"
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun i u -> Printf.sprintf "L%d %.1f%%" (i + 1) (pct u))
             info.E.utilization)))
    info.E.offered info.E.source_dropped
    (pct
       (float_of_int info.E.source_dropped
       /. float_of_int (max 1 info.E.offered)))
    info.E.net_dropped

let per_flow ctx title results info =
  if ctx.verbose then
    Printf.sprintf "\n%s:\n%s\n%s" title (Report.flow_results results)
      (info_line info)
  else ""

(* Table 1 and Table 2 fan one run per scheduler over the pool. *)
let per_sched ctx ~table run scheds =
  Ispn_exec.Pool.map ~j:ctx.jobs
    (fun sched ->
      let j = job ctx in
      let results, info = run sched j in
      let label = table ^ "." ^ E.sched_name sched in
      (sched, results, info, harvest ctx ~label j))
    scheds

let verbose_runs ctx runs =
  lines
    (fun (s, r, i, _) -> per_flow ctx (E.sched_name s ^ " per-flow") r i)
    runs

let table1 ctx =
  let runs =
    per_sched ctx ~table:"table1"
      (fun sched j ->
        E.run_single_link ~sched ~avg_rate_pps:ctx.avg_rate ?metrics:j.j_metrics
          ?audit:j.j_audit ?series:j.j_series ?hist:j.j_hist
          ~duration:ctx.duration ~seed:ctx.seed ())
      [ E.Wfq; E.Fifo ]
  in
  finish
    (Report.table1
       (List.map (fun (s, r, i, _) -> (s, r, i)) runs)
       ~sample_flow:0
    ^ "\n" ^ verbose_runs ctx runs)
    ~parts:(List.map (fun (_, _, _, o) -> o) runs)
    ~note:
      "Paper (Table 1):  WFQ mean 3.16, 99.9%ile 53.86;  FIFO mean 3.17, \
       99.9%ile 34.72\n\
       Shape to check: equal means; FIFO tail well below WFQ tail at 83.5% \
       load."

let table2 ctx =
  let runs =
    per_sched ctx ~table:"table2"
      (fun sched j ->
        E.run_figure1 ~sched ~avg_rate_pps:ctx.avg_rate ?metrics:j.j_metrics
          ?audit:j.j_audit ?series:j.j_series ?hist:j.j_hist
          ~duration:ctx.duration ~seed:ctx.seed ())
      [ E.Wfq; E.Fifo; E.Fifo_plus ]
  in
  finish
    (Report.table2
       (List.map (fun (s, r, _, _) -> (s, r)) runs)
       ~sample_flows:[ 18; 8; 2; 0 ]
    ^ "\n" ^ verbose_runs ctx runs)
    ~parts:(List.map (fun (_, _, _, o) -> o) runs)
    ~note:
      "Paper (Table 2), 99.9%ile by path length 1/2/3/4:\n\
      \  WFQ   45.31  60.31  65.86  80.59\n\
      \  FIFO  30.49  41.22  52.36  58.13\n\
      \  FIFO+ 33.59  38.15  43.30  45.25\n\
       Shape to check: tails grow with hops everywhere; FIFO+ grows slowest,\n\
       wins clearly at 3-4 hops, and gives a little back on 1-hop paths."

let table3 ctx =
  let j = job ctx in
  let res =
    E.run_table3 ~avg_rate_pps:ctx.avg_rate ?metrics:j.j_metrics
      ?audit:j.j_audit ?series:j.j_series ?hist:j.j_hist ~duration:ctx.duration
      ~seed:ctx.seed ()
  in
  finish
    (Report.table3 res ^ "\n"
    ^ per_flow ctx "All real-time flows" res.E.all_flows res.E.info)
    ~parts:[ harvest ctx ~label:"table3" j ]
    ~note:
      "Paper (Table 3): Peak/4 max 15.99 vs bound 23.53; Peak/2 8.79 vs \
       11.76;\n\
      \  Average/3 296.23 vs 611.76; Average/1 247.24 vs 588.24;\n\
      \  High/4 99.9%ile 8.20; High/2 5.83; Low/3 104.83; Low/1 79.57;\n\
      \  utilization >99% (83.5% real-time), datagram drop ~0.1%.\n\
       Shape to check: every guaranteed max under its P-G bound; Peak << \
       Average;\n\
       High < Low; link near saturation with real-time at ~83.5%."

(* ---- extensions --------------------------------------------------------- *)

let bakeoff ctx =
  let runs =
    X.run_bakeoff ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs
      ~check:ctx.check ()
  in
  let f2 = Table.fmt_float ~decimals:2 in
  let f0 = Table.fmt_float ~decimals:0 in
  let pt =
    Ispn_util.Units.packet_times ~link_rate_bps:Ispn_util.Units.link_rate_bps
      ~packet_bits:Ispn_util.Units.packet_bits
  in
  let row (row : X.bakeoff_row) =
    X.bakeoff_name row.X.bk_sched
    :: List.concat_map
         (fun flow ->
           let r =
             List.find (fun (fr : E.flow_result) -> fr.E.flow = flow)
               row.X.bk_results
           in
           (* Zero delivered packets means no percentiles: print "-",
              never a 0.00 (or NaN) that reads as a measurement. *)
           let stat v = if r.E.received = 0 then "-" else f2 v in
           let bound =
             match row.X.bk_bounds with
             | None -> "-"
             | Some bs -> f0 (pt (List.assoc flow bs))
           in
           [ stat r.E.mean; stat r.E.p999; bound ])
         [ 18; 8; 2; 0 ]
  in
  let header =
    "scheduler"
    :: List.concat_map
         (fun h -> [ "mean@" ^ h; "p999@" ^ h; "bound@" ^ h ])
         [ "1"; "2"; "3"; "4" ]
  in
  finish
    (Table.render ~header ~rows:(List.map row runs) () ^ "\n")
    ~checks:
      (per_row
         (fun r -> "bakeoff." ^ X.bakeoff_name r.X.bk_sched)
         (fun r -> r.X.bk_check)
         runs)
    ~note:
      "Shape to check: the isolating schedulers (WFQ, VirtualClock, DRR,\n\
       WRR, RR-groups) all pay a tail penalty against the sharing\n\
       schedulers; EDF with equal budgets tracks FIFO exactly (Section 5's\n\
       degeneracy), as does MC-FIFO by construction; FIFO+ has the flattest\n\
       tail growth with path length; and the non-work-conserving schemes\n\
       (CBS, ATS, Stop-and-Go, HRR, Jitter-EDD) show Section 11's trade —\n\
       higher mean delay bought for a narrower delay spread.  The bound@h\n\
       columns are the shapers' deterministic per-packet delay bounds\n\
       (CBS/ATS: Mohammadpour et al.; WRR: Constantin et al.; MC-FIFO:\n\
       Jiang-Misra), in packet times; --check audits every delivered\n\
       packet against them, and their hundred-fold slack over the measured\n\
       tails is the paper's isolation argument made quantitative: without\n\
       per-flow isolation the provable bound balloons with the shared\n\
       bursts even while typical delays stay small."

let admission ctx =
  finish
    (lines
       (fun (r : X.admission_result) ->
         Printf.sprintf
           "%-24s requests %3d, accepted %3d, utilization %5.1f%%, violations \
            %6.2f%%, drops %6.2f%%\n"
           (X.policy_name r.X.policy) r.X.requests r.X.accepted
           (pct r.X.mean_utilization) (pct r.X.violation_rate)
           (pct r.X.net_drop_rate))
       (X.run_admission ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs ()))
    ~note:
      "Shape to check (the paper's Section 9/12 conjecture): the measured\n\
       policy admits more flows and runs the link hotter than worst-case\n\
       declared-rate admission, with both keeping violations at zero; no\n\
       admission control saturates the link and shreds the delay targets."

let playback ctx =
  finish
    (lines
       (fun (r : X.playback_result) ->
         Printf.sprintf
           "%-10s mean play-back point %6.2f packet times, application loss \
            %.3f%%\n"
           r.X.client r.X.mean_point (pct r.X.app_loss_rate))
       (X.run_playback ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check (Section 2.3/12): both adaptive clients' play-back\n\
       points sit far below the rigid client's advertised-bound point at a\n\
       small loss rate; the VAT-style spike-following filter converts most of\n\
       the windowed tracker's residual loss into a similar point."

let cascade ctx =
  finish
    (lines
       (fun (r : X.cascade_row) ->
         Printf.sprintf "%-10s per-hop mean %6.2f, 99.9%%ile %8.2f\n"
           r.X.cascade_class r.X.c_mean r.X.c_p999)
       (X.run_cascade ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check (Section 7): each class absorbs the jitter of the\n\
       classes above it, so tails grow monotonically down the priority\n\
       ladder, with the datagram class carrying the accumulated burstiness\n\
       of everyone."

let isolation ctx =
  finish
    (lines
       (fun (r : X.isolation_row) ->
         Printf.sprintf
           "%-28s honest: mean %7.2f p999 %8.2f | cheater: mean %8.2f p999 \
            %8.2f\n"
           r.X.iso_sched r.X.honest_mean r.X.honest_p999 r.X.cheat_mean
           r.X.cheat_p999)
       (X.run_isolation ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check (Section 5): under plain FIFO the cheater drags \
       everyone\n\
       down; WFQ quarantines the damage to the cheater; edge policing \
       restores\n\
       FIFO's low tails — isolation and sharing are separable concerns."

let discard ctx =
  finish
    (lines
       (fun (r : X.discard_result) ->
         Printf.sprintf
           "threshold %-8s 4-hop 99.9%%ile %7.2f, discarded %.3f%% of packets\n"
           (match r.X.threshold with
           | None -> "off"
           | Some t -> Printf.sprintf "%.0f ms" (1000. *. t))
           r.X.p999_4hop
           (pct r.X.discarded_fraction))
       (X.run_discard ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check (Section 10): discarding packets whose accumulated \
       offset\n\
       marks them as hopelessly late trims the tail for everyone else at a \
       tiny\n\
       loss cost."

let service ctx =
  let r = X.run_table3_service ~duration:ctx.duration ~seed:ctx.seed () in
  finish
    (lines
       (fun (row : X.e2e_row) ->
         Printf.sprintf "  flow %2d %-20s %d hop(s) -> %s\n" row.X.e2e_flow
           row.X.e2e_label row.X.e2e_hops row.X.e2e_outcome)
       r.X.e2e_rows
    ^ Printf.sprintf
        "admitted %d (of 22 real-time flows; %d refusals counted across \
         retries),\n\
         utilization %.1f%%, predicted target violations %.2f%%\n"
        r.X.e2e_admitted r.X.e2e_rejected (pct r.X.e2e_utilization)
        (pct r.X.e2e_violations))
    ~note:
      "Shape to check: guaranteed flows admitted immediately; predicted\n\
       admissions arrive in waves as measurement replaces worst-case\n\
       bookings; everything admitted keeps its targets; TCP refills the\n\
       link to ~99%.  The Section 9 example criterion is (by design) more\n\
       conservative than the paper's hand-placed Table 3."

let sweep ctx =
  finish
    (lines
       (fun (r : X.sweep_row) ->
         Printf.sprintf
           "utilization %5.1f%%  FIFO 99.9%%ile %6.2f   WFQ 99.9%%ile %6.2f   \
            WFQ/FIFO %.2f\n"
           (pct r.X.achieved_utilization) r.X.fifo_p999 r.X.wfq_p999
           (r.X.wfq_p999 /. r.X.fifo_p999))
       (X.run_load_sweep ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs ()))
    ~note:
      "Shape to check (Section 12): sharing and isolation coincide when\n\
       bandwidth is plentiful; the sharing advantage (WFQ/FIFO tail ratio)\n\
       appears around 80% load and widens as the link saturates — \"careful\n\
       attention to sharing arises only when bandwidth is limited\"."

let signaling ctx =
  finish
    (lines
       (fun (r : X.signaling_row) ->
         Printf.sprintf
           "background load %3.0f%%: %3d setups, mean %6.2f ms, max %7.2f ms\n"
           (pct r.X.sig_load) r.X.sig_setups r.X.sig_mean_ms r.X.sig_max_ms)
       (X.run_signaling ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check: establishment takes real network time (about 6 ms\n\
       across four hops when idle: four 0.5 ms control transmissions plus\n\
       the reverse-path confirmation) and stretches by an order of magnitude\n\
       when the datagram class the control packets share is loaded — the\n\
       paper's fourth architectural component, priced."

let series_interval ctx = if ctx.series then Some 1.0 else None

let faults ctx =
  let rows =
    X.run_failover ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs
      ?series_interval:(series_interval ctx) ()
  in
  finish
    (lines
       (fun (r : X.failover_row) ->
         Printf.sprintf
           "%-12s violations %5.2f%%  lost %6d  retries %3d (abandoned %d)  \
            reestablished %d in %4.1f ms  degraded %d\n"
           (X.failover_name r.X.fo_schedule)
           (pct r.X.fo_violation_rate) r.X.fo_lost r.X.fo_retries
           r.X.fo_abandoned r.X.fo_reestablished r.X.fo_reestablish_ms
           r.X.fo_degraded
         ^ lines
             (fun (f : X.failover_flow) ->
               Printf.sprintf "    flow %d: requested %s, ended %s\n"
                 f.X.ff_flow f.X.ff_requested f.X.ff_final)
             r.X.fo_flows)
       rows)
    ~exports:
      (per_row
         (fun r -> "faults." ^ X.failover_name r.X.fo_schedule)
         (fun r -> r.X.fo_series)
         rows)
    ~note:
      "Shape to check: the baseline row is clean (no retries, no\n\
       degradation); link outages and header corruption lose packets and\n\
       force setup retransmissions but every completed setup still rolls\n\
       back or establishes cleanly; the agent crash re-establishes every\n\
       flow through the dead switch within milliseconds, and the flows the\n\
       usurper squeezes out slide down the service ladder (guaranteed ->\n\
       predicted -> datagram) instead of dying — Section 2's tolerant,\n\
       adaptive clients surviving a changed network."

let churn ctx =
  let rows =
    X.run_churn ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs
      ~check:ctx.check ?series_interval:(series_interval ctx) ()
  in
  let label (r : X.churn_row) = "churn." ^ X.churn_name r.X.ch_scenario in
  finish
    (lines
       (fun (r : X.churn_row) ->
         Printf.sprintf
           "%-15s sessions %6d  blocking %5.2f%%  departed %6d (active %4d)  \
            signaling %6.1f pkt/s (refresh %4.1f%%)  retries %4d  expired %4d  \
            recycled %6d (hwm %4d)  leaked %d\n"
           (X.churn_name r.X.ch_scenario)
           r.X.ch_offered (pct r.X.ch_blocking) r.X.ch_departed
           r.X.ch_active_end r.X.ch_signaling_pps (pct r.X.ch_refresh_share)
           r.X.ch_retries r.X.ch_expired r.X.ch_recycled r.X.ch_slot_hwm
           r.X.ch_leaked)
       rows
    ^ Printf.sprintf "cumulative sessions across scenarios: %d\n"
        (List.fold_left
           (fun acc (r : X.churn_row) -> acc + r.X.ch_offered)
           0 rows))
    ~checks:(per_row label (fun r -> r.X.ch_check) rows)
    ~exports:(per_row label (fun r -> r.X.ch_series) rows)
    ~note:
      "Shape to check: leaked is 0 in every scenario — that is the soft-state\n\
       contract.  The clean run expires nothing (all teardowns arrive); the\n\
       lossy run strands reservations mid-path and the expired column shows\n\
       the refresh timeout reclaiming every one; the crashes and the flap\n\
       push blocking and retries up, never the leak count.  Recycled >> hwm:\n\
       the dense flow-id space stays bounded under a million sessions."

let scale ctx =
  (* Raises Invalid_argument when --shards exceeds what the topology can
     split into; the front-ends report it. *)
  let r =
    X.run_scale ~duration:ctx.duration ~seed:ctx.seed ~shards:ctx.shards
      ~check:ctx.check ~metrics:ctx.metrics
      ?series_interval:(series_interval ctx) ()
  in
  (* Everything that varies with the shard count is diagnostic, not
     result, and goes to stderr. *)
  Printf.eprintf
    "[scale: %d shard(s), %d cut link(s), lookahead %.2f ms, %d windows, %d \
     packets exchanged, %d events fired]\n%!"
    r.X.sc_shards r.X.sc_cut_links (1e3 *. r.X.sc_lookahead) r.X.sc_windows
    r.X.sc_exchanged r.X.sc_fired;
  finish
    (Printf.sprintf
       "%d switches, %d links, %d on/off flows over %.0f s (delays in packet \
        times)\n"
       r.X.sc_switches r.X.sc_links r.X.sc_flow_count ctx.duration
    ^ lines
        (fun (row : X.scale_row) ->
          Printf.sprintf
            "regions crossed %d  flows %5d  delivered %9d  mean %8.1f  max \
             %8.1f  queueing %6.2f\n"
            row.X.sc_span row.X.sc_flows row.X.sc_delivered
            row.X.sc_mean_delay row.X.sc_max_delay row.X.sc_mean_qdelay)
        r.X.sc_rows
    ^ Printf.sprintf
        "total: delivered %d, sent %d link transmissions, dropped %d\n"
        r.X.sc_delivered_total r.X.sc_sent r.X.sc_dropped)
    ~snapshots:(labelled "scale" r.X.sc_metrics)
    ~exports:(labelled "scale" r.X.sc_series)
    ~checks:(labelled "scale" r.X.sc_check)
    ~note:
      "Shape to check: mean delay grows with the regions crossed —\n\
       propagation dominates at ~10 ms per backbone hop — while the\n\
       queueing share stays small at this load and drops are rare.  The\n\
       table is byte-identical for every --shards width; only the stderr\n\
       diagnostics and wall time change."

let importance ctx =
  finish
    (lines
       (fun (r : X.importance_row) ->
         Printf.sprintf "%-16s received %6d   mean %6.2f   99.9%%ile %7.2f\n"
           r.X.imp_label r.X.imp_received r.X.imp_mean r.X.imp_p999)
       (X.run_importance ~duration:ctx.duration ~seed:ctx.seed ()))
    ~note:
      "Shape to check (Section 10): one application, two importance tags,\n\
       adjacent priority classes: the important packets see almost no\n\
       queueing while the less-important ones absorb the congestion —\n\
       controlled degradation from existing mechanism."

let ablation ctx =
  finish
    (lines
       (fun (gain, (r : E.flow_result)) ->
         Printf.sprintf "gain 1/%-6.0f 4-hop mean %5.2f, 99.9%%ile %6.2f\n"
           (1. /. gain) r.E.mean r.E.p999)
       (X.run_gain_ablation ~duration:ctx.duration ~seed:ctx.seed ~j:ctx.jobs
          ()))
    ~note:
      "Shape to check (DESIGN.md): a fast class average (1/16) mutes the \
       jitter\n\
       offsets and FIFO+ degenerates toward FIFO; the slow default (1/4096)\n\
       recovers the paper's multi-hop tail reduction."

let seeds ctx =
  finish
    (lines
       (fun (r : X.seeds_row) ->
         Printf.sprintf
           "%-6s 4-hop 99.9%%ile over 5 seeds: mean %6.2f  (min %6.2f, max \
            %6.2f)\n"
           (E.sched_name r.X.seeds_sched)
           r.X.p999_mean r.X.p999_min r.X.p999_max)
       (X.run_seed_robustness ~duration:ctx.duration ~j:ctx.jobs ()))
    ~note:
      "Shape to check: the Table-2 ordering (FIFO+ < FIFO < WFQ at four\n\
       hops) is not an artifact of the headline seed — the seed-wise ranges\n\
       barely overlap."

let trace ctx =
  finish
    (lines
       (fun experiment ->
         Report.trace
           (X.run_trace ~experiment ?capacity:ctx.trace_cap
              ~duration:ctx.duration ~seed:ctx.seed ())
         ^ "\n")
       [ X.T_table2; X.T_table3 ])
    ~note:
      "Shape to check: each packet's per-hop queueing sums to the\n\
       end-to-end delay its egress probe reported; under FIFO+ the worst\n\
       packets' delay is spread across the path rather than concentrated at\n\
       one hop, and under CSZ the predicted classes dominate the tail."

(* ---- the registry ------------------------------------------------------- *)

let plain = [ Duration; Seed ]
let tables = [ Duration; Seed; Avg_rate; Verbose; Metrics; Series; Check ]

let entry ?cap ?(params = plain) name doc run = { name; doc; params; cap; run }

let all =
  [
    entry "topology" "Print the Figure-1 topology and flow layout." ~params:[]
      (fun _ -> finish (Report.figure1 ()));
    entry "table1" "Reproduce Table 1: WFQ vs FIFO on a single shared link."
      ~params:(Jobs :: tables) table1;
    entry "table2"
      "Reproduce Table 2: WFQ vs FIFO vs FIFO+ on the Figure-1 multihop chain."
      ~params:(Jobs :: tables) table2;
    entry "table3" "Reproduce Table 3: the unified CSZ scheduling algorithm."
      ~params:(Debug :: tables) table3;
    entry "bakeoff"
      "E1: related-work scheduler bake-off (VirtualClock, EDF, DRR, WRR, \
       MC-FIFO, CBS, ATS, RR-groups, ...) on the Table-2 workload, with \
       analytic per-hop delay-bound columns for the shapers; --check audits \
       every delivered packet against its registered bound."
      ~params:[ Duration; Seed; Jobs; Check ] bakeoff;
    entry "admission"
      "E2: admission-control policies under dynamic flow arrivals."
      ~params:[ Duration; Seed; Debug; Jobs ] admission;
    entry "playback"
      "E3: adaptive vs rigid play-back clients on the 4-hop flow." playback;
    entry "cascade" "E6: jitter shifting down the priority-class ladder."
      cascade;
    entry "isolation"
      "E4: a misbehaving source under FIFO, WFQ and edge policing." isolation;
    entry "discard" "E5: Section 10 late-packet discard via the FIFO+ offset."
      discard;
    entry "service"
      "E7: offer the Table-3 population to the full service stack (admission \
       + policing + scheduling) instead of hand-placing it."
      service;
    entry "sweep" "E8: sharing's tail advantage as a function of load."
      ~params:[ Duration; Seed; Jobs ] sweep;
    entry "signaling" "E9: in-band hop-by-hop establishment latency vs load."
      ~cap:120. signaling;
    entry "faults"
      "E11: inject link outages, header corruption and agent crashes; watch \
       setup retries, re-establishment and the guaranteed -> predicted -> \
       datagram degradation ladder."
      ~cap:120. ~params:[ Duration; Seed; Jobs; Series ] faults;
    entry "churn"
      "E13: open-loop session churn through the soft-state signaling layer — \
       RSVP-style refresh/timeout recovering lost teardowns, agent crashes \
       and link outages, with leak-free flow-id recycling."
      ~params:[ Duration; Seed; Jobs; Check; Series ] churn;
    entry "scale"
      "E14: one large parking-lot simulation (20 switches, thousands of \
       on/off flows) sharded across OCaml 5 domains with conservative \
       lock-step windows — same table, metrics and series at every --shards \
       width."
      ~params:[ Duration; Fast; Seed; Shards; Check; Metrics; Series ] scale;
    entry "importance"
      "E10: one application's important vs less-important packets in \
       adjacent priority classes."
      importance;
    entry "ablation" "Ablation: FIFO+ class-average gain vs multi-hop jitter."
      ~params:[ Duration; Seed; Jobs ] ablation;
    entry "seeds"
      "Seed robustness: the Table-2 four-hop tails over five seeds."
      ~cap:300. ~params:[ Duration; Jobs ] seeds;
    entry "trace"
      "E12: the flight recorder's worst-packet per-hop delay decomposition \
       for the Table-2 and Table-3 runs."
      ~cap:120. ~params:[ Duration; Seed; Trace_cap ] trace;
  ]
