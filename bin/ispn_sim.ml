(* Command-line driver: rerun any of the paper's experiments (and the
   extensions) with custom durations, seeds and rates.  Every subcommand but
   profile, backlog and trace is a {!Csz.Section} entry — the same rendering
   the bench harness prints — and gets exactly the flags that entry reads. *)

open Cmdliner
module Section = Csz.Section

(* One positive-int and one positive-finite-float conv for every count,
   width, duration and rate flag; the bench parses with the same
   predicates.  A bad value exits 124 with a one-line message. *)
let conv parse pp =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), pp)

let positive_int = conv Section.positive_int (Arg.conv_printer Arg.int)
let positive_float = conv Section.positive_float (Arg.conv_printer Arg.float)
let d = Section.default_ctx

let duration =
  let doc = "Simulated duration in seconds (the paper uses 600)." in
  Arg.(
    value
    & opt positive_float d.Section.duration
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc)

let seed =
  let doc = "PRNG seed; equal seeds reproduce runs bit-for-bit." in
  Arg.(
    value & opt int64 d.Section.seed & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let avg_rate =
  let doc = "Per-flow average packet rate A (packets/second)." in
  Arg.(
    value
    & opt positive_float d.Section.avg_rate
    & info [ "a"; "avg-rate" ] ~docv:"PPS" ~doc)

let jobs =
  let doc =
    "Domains to fan independent simulation runs over (Ispn_exec.Pool). \
     Results are bit-identical for any value; defaults to the host's \
     recommended domain count."
  in
  Arg.(
    value
    & opt positive_int d.Section.jobs
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards =
  let doc =
    "Domains to shard the one simulation over (conservative lock-step \
     windows, Ispn_sim.Shardnet).  The result table is byte-identical for \
     every width; only wall time and the stderr diagnostics change."
  in
  Arg.(value & opt positive_int 1 & info [ "shards" ] ~docv:"N" ~doc)

let fast =
  let doc = "60 s of simulated time instead of --duration." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let verbose =
  let doc = "Also print per-flow statistics." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let debug =
  let doc =
    "Log admission decisions, flow establishment and buffer drops to stderr."
  in
  Arg.(value & flag & info [ "debug" ] ~doc)

let metrics =
  let doc =
    "Print deterministic [obs] footer lines (engine counters, per-link \
     drops/pool/wait) and write the full metrics snapshots to $(docv) — \
     CSV if it ends in .csv, JSON otherwise.  Snapshots are merged in \
     canonical job order, so the file is byte-identical for every -j."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let series =
  let doc =
    "Sample every instrument once per simulated second and write the \
     labeled timelines, plus per-channel delay-histogram percentiles, to \
     $(docv) — CSV if it ends in .csv, JSON otherwise.  Sampling is keyed \
     by sim time and exports merge in canonical job order, so the file is \
     byte-identical for every -j; default stdout is unchanged."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let check =
  let doc =
    "Attach the $(b,ispn_check) conformance auditor to every link (packet \
     conservation, pool accounting, work-conservation, delay monotonicity, \
     token-bucket conformance, PG bounds) and print deterministic [check] \
     footer lines.  Exits 1 if any invariant is violated.  Stdout is \
     byte-identical to a run without the flag, minus the footers, and \
     -j-independent with it."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let trace_cap =
  let doc =
    "Flight-recorder ring capacity in events; the ring keeps the newest."
  in
  Arg.(
    value
    & opt positive_int (1 lsl 20)
    & info [ "events"; "trace-cap" ] ~docv:"N" ~doc)

(* ---- registry entries as subcommands ------------------------------------ *)

type opts = {
  ctx : Section.ctx;
  fast : bool;
  debug : bool;
  metrics_file : string option;
  series_file : string option;
}

let flag : Section.param -> (opts -> opts) Term.t =
  let set arg f = Term.(const (fun v o -> f o v) $ arg) in
  let ctx arg f = set arg (fun o v -> { o with ctx = f o.ctx v }) in
  function
  | Duration -> ctx duration (fun c duration -> { c with duration })
  | Seed -> ctx seed (fun c seed -> { c with seed })
  | Jobs -> ctx jobs (fun c jobs -> { c with jobs })
  | Shards -> ctx shards (fun c shards -> { c with shards })
  | Avg_rate -> ctx avg_rate (fun c avg_rate -> { c with avg_rate })
  | Verbose -> ctx verbose (fun c verbose -> { c with verbose })
  | Check -> ctx check (fun c check -> { c with check })
  | Trace_cap -> ctx trace_cap (fun c n -> { c with trace_cap = Some n })
  | Fast -> set fast (fun o fast -> { o with fast })
  | Debug -> set debug (fun o debug -> { o with debug })
  | Metrics ->
      set metrics (fun o f ->
          { o with metrics_file = f; ctx = { o.ctx with metrics = f <> None } })
  | Series ->
      set series (fun o f ->
          { o with series_file = f; ctx = { o.ctx with series = f <> None } })

let run (s : Section.t) o =
  if o.debug then Ispn_util.Log.setup ~level:Logs.Debug ();
  let ctx = if o.fast then { o.ctx with duration = 60. } else o.ctx in
  let out =
    try s.run ctx
    with Invalid_argument msg ->
      Printf.eprintf "ispn_sim: %s\n" msg;
      exit 2
  in
  print_string out.text;
  Section.conclude ?metrics_file:o.metrics_file ?series_file:o.series_file
    [ out ]

let section_cmd (s : Section.t) =
  let init =
    {
      ctx = d;
      fast = false;
      debug = false;
      metrics_file = None;
      series_file = None;
    }
  in
  let opts =
    List.fold_left
      (fun acc p -> Term.(const (fun f o -> f o) $ flag p $ acc))
      (Term.const init) s.params
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc) Term.(const (run s) $ opts)

(* ---- CLI-only wrappers -------------------------------------------------- *)

let profile_cmd =
  let run duration seed avg_rate =
    (* Record the Appendix's on/off process and characterize it: the b(r)
       curve and the clock rate a guaranteed client should request. *)
    let engine = Ispn_sim.Engine.create () in
    let profile = Ispn_traffic.Profile.create () in
    let source =
      Ispn_traffic.Onoff.create ~engine
        ~prng:(Ispn_util.Prng.create ~seed)
        ~flow:0 ~avg_rate_pps:avg_rate
        ~emit:(fun pkt ->
          Ispn_traffic.Profile.record profile
            ~time:(Ispn_sim.Engine.now engine)
            ~bits:(Ispn_sim.Packet.size_bits pkt);
          Ispn_sim.Packet.free pkt)
        ()
    in
    source.Ispn_traffic.Source.start ();
    Ispn_sim.Engine.run engine ~until:duration;
    Printf.printf
      "Recorded %d packets over %.0f s: mean %.0f bit/s, peak %.0f bit/s\n\n"
      (Ispn_traffic.Profile.packets profile)
      duration
      (Ispn_traffic.Profile.mean_rate_bps profile)
      (Ispn_traffic.Profile.peak_rate_bps profile);
    print_endline "b(r), the minimal token-bucket depth at clock rate r:";
    let mean = Ispn_traffic.Profile.mean_rate_bps profile in
    List.iter
      (fun mult ->
        let r = mean *. mult in
        let b = Ispn_traffic.Profile.min_depth_bits profile ~rate_bps:r in
        let bound1 = Ispn_traffic.Profile.delay_bound profile ~rate_bps:r ~hops:1 in
        Printf.printf
          "  r = %.2f x mean = %7.0f bit/s   b(r) = %6.0f bits (%.0f pkts)  \
           1-hop bound %.1f ms\n"
          mult r b (b /. 1000.) (1000. *. bound1))
      [ 1.02; 1.1; 1.25; 1.5; 1.75; 2.0 ];
    print_newline ();
    List.iter
      (fun target ->
        match
          Ispn_traffic.Profile.clock_rate_for_delay profile ~target ~hops:4 ()
        with
        | Some r ->
            Printf.printf
              "For a %.0f ms bound over 4 hops, request clock rate %.0f \
               bit/s (%.2f x mean)\n"
              (1000. *. target) r (r /. mean)
        | None ->
            Printf.printf
              "A %.0f ms bound over 4 hops is infeasible for this source\n"
              (1000. *. target))
      [ 0.6; 0.2; 0.05 ]
  in
  let doc =
    "Characterize an on/off source: its b(r) curve and the guaranteed-service \
     clock rate needed for a target delay bound (Section 4's client-side \
     computation)."
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ duration $ seed $ avg_rate)

let backlog_cmd =
  let run duration seed avg_rate =
    (* The Table-1 single link, instrumented for queue depth instead of
       delay: how close does the paper's 200-packet buffer come to full? *)
    let engine = Ispn_sim.Engine.create () in
    let prng = Ispn_util.Prng.create ~seed in
    let pool = Ispn_sim.Qdisc.pool ~capacity:Ispn_util.Units.buffer_packets in
    let net =
      Ispn_sim.Network.chain ~engine ~n_switches:2 ~rate_bps:1e6
        ~qdisc_of:(fun _ -> Ispn_sched.Fifo.create ~pool ())
        ()
    in
    for flow = 0 to 9 do
      Ispn_sim.Network.install_flow net ~flow ~ingress:0 ~egress:1
        ~sink:(fun _ -> ());
      let bucket =
        Ispn_traffic.Token_bucket.create
          ~rate_bps:(avg_rate *. 1000.)
          ~depth_bits:50_000. ()
      in
      let policer =
        Ispn_traffic.Token_bucket.policer ~engine ~bucket
          ~mode:Ispn_traffic.Token_bucket.Drop
          ~next:(fun pkt -> Ispn_sim.Network.inject net ~at_switch:0 pkt)
      in
      let source =
        Ispn_traffic.Onoff.create ~engine ~prng:(Ispn_util.Prng.split prng)
          ~flow ~avg_rate_pps:avg_rate
          ~emit:(Ispn_traffic.Token_bucket.admit_fn policer)
          ()
      in
      source.Ispn_traffic.Source.start ()
    done;
    let watcher =
      Ispn_sim.Backlog.watch ~engine ~link:(Ispn_sim.Network.link net 0) ()
    in
    Ispn_sim.Engine.run engine ~until:duration;
    Printf.printf
      "Queue depth over %.0f s at %.1f%% load: mean %.1f, 99.9%%ile %.0f, max        %.0f of %d packets\n\n"
      duration
      (100. *. Ispn_sim.Network.utilization net ~link:0 ~elapsed:duration)
      (Ispn_sim.Backlog.mean watcher)
      (Ispn_sim.Backlog.percentile watcher 99.9)
      (Ispn_sim.Backlog.max watcher)
      Ispn_util.Units.buffer_packets;
    print_string
      (Ispn_util.Histogram.render ~unit_label:"pkts"
         (Ispn_sim.Backlog.histogram ~bins:16 watcher))
  in
  let doc =
    "Sample the single-link queue depth: how close the 200-packet buffer \
     comes to overflow at the Appendix's load."
  in
  Cmd.v (Cmd.info "backlog" ~doc) Term.(const run $ duration $ seed $ avg_rate)

let trace_cmd =
  let experiment =
    let doc =
      "Experiment to record: $(b,table1) (single FIFO link), $(b,table2) \
       (FIFO+ Figure-1 chain) or $(b,table3) (unified CSZ scheduler)."
    in
    Arg.(
      value
      & pos 0
          (Arg.enum
             [
               ("table1", Csz.Extensions.T_table1);
               ("table2", Csz.Extensions.T_table2);
               ("table3", Csz.Extensions.T_table3);
             ])
          Csz.Extensions.T_table2
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let worst =
    let doc = "Number of worst-delay packets to break down." in
    Arg.(value & opt positive_int 5 & info [ "worst" ] ~docv:"N" ~doc)
  in
  let dump =
    let doc =
      "Also write the surviving ring (oldest event first) to $(docv) as CSV \
       with one typed column per event field — \
       time,kind,link,flow,seq,cls,offset,value,cause."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let run duration seed experiment worst events fast dump =
    let duration = if fast then 60. else duration in
    (* Build the ring here when --dump asks for it, so its contents survive
       the run for export; run_trace attaches whichever ring it gets. *)
    let recorder =
      Option.map
        (fun _ -> Ispn_obs.Recorder.create ~capacity:events ())
        dump
    in
    let res =
      Csz.Extensions.run_trace ~experiment ~worst ~capacity:events ?recorder
        ~duration ~seed ()
    in
    print_string (Csz.Report.trace res);
    match (dump, recorder) with
    | Some path, Some r ->
        Ispn_obs.Recorder.write_csv path r;
        Printf.eprintf "wrote %s\n%!" path
    | _ -> ()
  in
  let doc =
    "E12: run an experiment with the flight recorder attached and print the \
     worst packets' per-hop delay decomposition (queueing + transmission per \
     link, summing to the end-to-end delay the probe saw)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ duration $ seed $ experiment $ worst $ trace_cap $ fast
      $ dump)

let default =
  let doc =
    "Reproduction of Clark, Shenker & Zhang, \"Supporting Real-Time \
     Applications in an Integrated Services Packet Network\" (SIGCOMM 1992)."
  in
  Cmd.group
    (Cmd.info "ispn_sim" ~version:"1.0.0" ~doc)
    (List.filter_map
       (fun (s : Section.t) ->
         if s.name = "trace" then None else Some (section_cmd s))
       Section.all
    @ [ profile_cmd; backlog_cmd; trace_cmd ])

let () = exit (Cmd.eval default)
