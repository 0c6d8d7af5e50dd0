(* Traced reassemblies of two workloads.

   [Csz.Experiment.run_table3] and [Csz.Extensions.run_scale] build their
   layers internally, so the traced run rebuilds each from the same public
   functions, wrapping every layer boundary it can reach from outside in a
   span: the qdisc closures, source emission (policer and injection
   included), TCP segment sends, the sinks, [Engine.run], and the shard
   engines handed out by [Shardnet.run ~on_shard].  What stays unwrapped —
   engine dispatch, link and node forwarding, timer handlers, the shard
   exchange — is the residual self time of [engine.run] (or of
   [shard.windows]).  Each reassembly must return the same result value as
   the library runner for the same inputs; the benchmark compares their
   digests, or the trace measured a different program. *)

open Ispn_sim
module E = Csz.Experiment
module Sc = Csz.Scenario
module Units = Ispn_util.Units
module Prng = Ispn_util.Prng
module Tb = Ispn_traffic.Token_bucket

(* Sampling the arena's high-water mark allocates a record, so the qdisc
   wrapper does it once every this many spans. *)
let arena_sample_mask = 1023

let wrap_qdisc (b : Span.buf) (q : Qdisc.t) : Qdisc.t =
  let enqueue ~now p =
    let s = Span.enter b Span.enqueue in
    let ok = q.Qdisc.enqueue ~now p in
    Span.leave b s;
    if not ok then b.Span.drops <- b.Span.drops + 1;
    let d = q.Qdisc.length () in
    if d > b.Span.depth_hwm then b.Span.depth_hwm <- d;
    ok
  in
  let dequeue ~now =
    let s = Span.enter b Span.dequeue in
    let r = q.Qdisc.dequeue ~now in
    Span.leave b s;
    (match r with
    | None -> b.Span.empty_dequeues <- b.Span.empty_dequeues + 1
    | Some _ -> ());
    if s land arena_sample_mask = 0 then begin
      let h = (Packet.pool_stats ()).Packet.p_hwm in
      if h > b.Span.arena_hwm then b.Span.arena_hwm <- h
    end;
    r
  in
  { q with Qdisc.enqueue; dequeue }

let wrap1 b name f x =
  let s = Span.enter b name in
  f x;
  Span.leave b s

(* --- Table 3 --------------------------------------------------------------- *)

type table3 = {
  t3 : E.t3_result;
  t3_engine : Engine.t;
  t3_retransmissions : int;
  t3_segments : int;
}

(* Mirrors [Experiment.run_table3] with no observability hooks. *)
let table3 ~duration ~seed =
  let open Sc in
  let b = Span.cur () in
  let run_s = Span.enter b Span.run in
  let setup_s = Span.enter b Span.setup in
  let avg_rate_pps = default_avg_rate_pps in
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let link_rate_bps = Units.link_rate_bps in
  let packet_bits_f = float_of_int Units.packet_bits in
  let peak_rate_bps = 2. *. avg_rate_pps *. packet_bits_f in
  let avg_rate_bps = avg_rate_pps *. packet_bits_f in
  let states = Array.make (figure1_n_switches - 1) None in
  let net =
    Network.chain ~engine ~n_switches:figure1_n_switches ~rate_bps:link_rate_bps
      ~qdisc_of:(fun i ->
        let pool = Qdisc.pool ~capacity:Units.buffer_packets in
        let config =
          { Csz.Csz_sched.default_config with
            link_rate_bps; discard_late_above = None }
        in
        let st, qdisc =
          Csz.Csz_sched.create ~config ~label:(string_of_int i) ~pool ()
        in
        states.(i) <- Some st;
        wrap_qdisc b qdisc)
      ()
  in
  let state i = Option.get states.(i) in
  List.iter
    (fun spec ->
      for i = spec.ingress to spec.egress - 1 do
        match table3_class_of spec.flow with
        | Guaranteed_peak ->
            Csz.Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:peak_rate_bps
        | Guaranteed_avg ->
            Csz.Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:avg_rate_bps
        | Predicted_high ->
            Csz.Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:0
        | Predicted_low ->
            Csz.Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:1
      done)
    figure1_flows;
  (* [Experiment.attach_rt_flow] with the sink and the emit path wrapped. *)
  let attach spec =
    let probe = Probe.create () in
    Network.install_flow net ~flow:spec.flow ~ingress:spec.ingress
      ~egress:spec.egress
      ~sink:(wrap1 b Span.sink_probe (fun pkt -> Probe.sink probe ~engine pkt));
    let rate_bps = avg_rate_pps *. packet_bits_f in
    let depth_bits = token_bucket_depth_packets *. packet_bits_f in
    let bucket = Tb.create ~rate_bps ~depth_bits () in
    let policer =
      Tb.policer ~engine ~bucket ~mode:Tb.Drop
        ~next:(fun pkt -> Network.inject net ~at_switch:spec.ingress pkt)
    in
    let source =
      Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng)
        ~flow:spec.flow ~avg_rate_pps
        ~emit:(wrap1 b Span.emit (Tb.admit_fn policer))
        ()
    in
    { E.spec; source; policer; probe }
  in
  let rt_flows = List.map attach figure1_flows in
  let tcps =
    List.mapi
      (fun i (ingress, egress) ->
        let flow = 100 + i in
        let tcp =
          Ispn_transport.Tcp.create ~engine ~flow
            ~send:
              (wrap1 b Span.tcp_send (fun pkt ->
                   Network.inject net ~at_switch:ingress pkt))
            ()
        in
        Network.install_flow net ~flow ~ingress ~egress
          ~sink:
            (wrap1 b Span.sink_tcp (fun pkt -> Ispn_transport.Tcp.receive tcp pkt));
        (flow, tcp))
      table3_tcp_paths
  in
  List.iter (fun rt -> rt.E.source.Ispn_traffic.Source.start ()) rt_flows;
  List.iter (fun (_, tcp) -> Ispn_transport.Tcp.start tcp) tcps;
  Span.leave b setup_s;
  let eng_s = Span.enter b Span.engine_run in
  Engine.run engine ~until:duration;
  Span.leave b eng_s;
  let ext_s = Span.enter b Span.extract in
  let all_flows = List.map E.result_of_rt_flow rt_flows in
  let n_links = Network.n_links net in
  let info =
    {
      E.duration;
      utilization =
        Array.init n_links (fun i ->
            Network.utilization net ~link:i ~elapsed:duration);
      offered =
        List.fold_left (fun acc rt -> acc + Tb.offered rt.E.policer) 0 rt_flows;
      source_dropped =
        List.fold_left (fun acc rt -> acc + Tb.dropped rt.E.policer) 0 rt_flows;
      net_dropped = Network.total_dropped net;
    }
  in
  let find_flow f = List.find (fun (r : E.flow_result) -> r.E.flow = f) all_flows in
  let pg ~rate_bps ~depth_bits ~hops =
    let bucket = { Ispn_admission.Spec.rate_bps; depth_bits } in
    Some
      (Units.packet_times ~link_rate_bps ~packet_bits:Units.packet_bits
         (Ispn_admission.Bounds.pg_bound ~bucket ~clock_rate_bps:rate_bps ~hops
            ()))
  in
  let rows =
    List.map
      (fun (label, f) ->
        let r = find_flow f in
        let pg_bound =
          match table3_class_of f with
          | Guaranteed_peak ->
              pg ~rate_bps:peak_rate_bps ~depth_bits:packet_bits_f ~hops:r.E.hops
          | Guaranteed_avg ->
              pg ~rate_bps:avg_rate_bps
                ~depth_bits:(token_bucket_depth_packets *. packet_bits_f)
                ~hops:r.E.hops
          | Predicted_high | Predicted_low -> None
        in
        {
          E.label;
          t3_flow = f;
          t3_hops = r.E.hops;
          t3_mean = r.E.mean;
          t3_p999 = r.E.p999;
          t3_max = r.E.max;
          pg_bound;
        })
      table3_sample_flows
  in
  let module Tcp = Ispn_transport.Tcp in
  let tcp_results =
    List.map
      (fun (flow, tcp) ->
        {
          E.tcp_flow = flow;
          goodput_bps = Tcp.goodput_bps tcp ~elapsed:duration;
          loss_rate = Tcp.loss_rate tcp;
          delivered = Tcp.delivered tcp;
          segments_sent = Tcp.segments_sent tcp;
        })
      tcps
  in
  let realtime_utilization =
    Array.init n_links (fun i ->
        float_of_int (Csz.Csz_sched.realtime_bits_sent (state i))
        /. (link_rate_bps *. duration))
  in
  let segments =
    List.fold_left (fun acc (r : E.tcp_result) -> acc + r.E.segments_sent) 0
      tcp_results
  in
  let retx =
    List.fold_left (fun acc (_, tcp) -> acc + Tcp.retransmissions tcp) 0 tcps
  in
  let datagram_drop_rate =
    if segments = 0 then 0. else float_of_int retx /. float_of_int segments
  in
  let t3 =
    { E.rows; all_flows; tcp = tcp_results; info; realtime_utilization;
      datagram_drop_rate }
  in
  Span.leave b ext_s;
  Span.leave b run_s;
  {
    t3;
    t3_engine = engine;
    t3_retransmissions = retx;
    t3_segments = segments;
  }

(* --- Parking lot (E14) ------------------------------------------------------ *)

type scale = {
  sc : Csz.Extensions.scale_report;
  sc_engines : Engine.stats array;  (** One per shard. *)
  sc_pending_hwm : int;  (** Max over shards. *)
  sc_arena_hwm : int;  (** Max over shards, sampled (a lower bound). *)
  sc_remade : int;  (** Packets re-made at a destination shard. *)
}

(* Mirrors [Extensions.run_scale] at its defaults with no check or
   observability, wrapping the qdisc and flow-driver factories. *)
let scale ~duration ~seed ~shards =
  let regions = 4 and per_region = 5 and flows = 2000 and avg_rate_pps = 8. in
  let b = Span.cur () in
  let run_s = Span.enter b Span.run in
  let setup_s = Span.enter b Span.setup in
  let sn_gid = ref Span.no_parent in
  (* The first recorder use in a shard domain hangs its spans under the
     main domain's [shardnet.run]. *)
  let shard_buf () =
    let bb = Span.cur () in
    if bb.Span.root = Span.no_parent then bb.Span.root <- !sn_gid;
    bb
  in
  let n_switches = regions * per_region in
  let shard_of =
    Array.init n_switches (fun s -> s / per_region * shards / regions)
  in
  let link_rate_bps = 10. *. Units.link_rate_bps in
  let link_specs =
    Array.init
      (2 * (n_switches - 1))
      (fun li ->
        let i = li / 2 in
        let backbone = (i + 1) mod per_region = 0 in
        let base = if backbone then 10e-3 else 1e-3 in
        let prop = base *. (1. +. (0.003 *. float_of_int li)) in
        let src, dst = if li land 1 = 0 then (i, i + 1) else (i + 1, i) in
        {
          Shardnet.l_src = src;
          l_dst = dst;
          l_rate_bps = link_rate_bps;
          l_prop_delay = prop;
          l_qdisc =
            (fun () ->
              let pool = Qdisc.pool ~capacity:Units.buffer_packets in
              wrap_qdisc (shard_buf ()) (Ispn_sched.Fifo.create ~pool ()));
        })
  in
  let prng = Prng.create ~seed in
  let flow_src = Array.make flows 0 in
  let flow_dst = Array.make flows 0 in
  let flow_specs =
    Array.init flows (fun f ->
        let fp = Prng.split prng in
        let src = Prng.int prng ~bound:n_switches in
        let d = Prng.int prng ~bound:(n_switches - 1) in
        let dst = if d >= src then d + 1 else d in
        flow_src.(f) <- src;
        flow_dst.(f) <- dst;
        {
          Shardnet.f_src = src;
          f_dst = dst;
          f_driver =
            (fun engine emit ->
              let bb = shard_buf () in
              let source =
                Ispn_traffic.Onoff.create ~engine ~prng:fp ~flow:f
                  ~avg_rate_pps ~packet_bits:Units.packet_bits
                  ~emit:(wrap1 bb Span.emit emit) ()
              in
              source.Ispn_traffic.Source.start ());
        })
  in
  let spec =
    { Shardnet.n_switches; n_shards = shards; shard_of; links = link_specs;
      flows = flow_specs }
  in
  Span.leave b setup_s;
  let sn = Span.enter b Span.shardnet_run in
  sn_gid := Span.gid b sn;
  let t_entry = Span.now () in
  let engines = Array.make shards None in
  let windows = Array.make shards None in
  let on_shard ~shard engine =
    let bb = shard_buf () in
    ignore
      (Span.record bb Span.shard_setup ~t0:t_entry ~t1:(Span.now ())
         ~parent:!sn_gid);
    engines.(shard) <- Some engine;
    windows.(shard) <- Some (bb, Span.enter bb Span.shard_windows)
  in
  let res = Shardnet.run ~on_shard ~until:duration spec in
  let t_ret = Span.now () in
  Array.iter
    (function Some (bb, w) -> Span.close bb w ~t1:t_ret | None -> ())
    windows;
  Span.leave b sn;
  let ext_s = Span.enter b Span.extract in
  let pt = Units.packet_times ~link_rate_bps ~packet_bits:Units.packet_bits in
  let rows =
    List.init regions (fun span ->
        let fs = ref 0
        and del = ref 0
        and dsum = ref 0.
        and dmax = ref 0.
        and qsum = ref 0. in
        for f = 0 to flows - 1 do
          let s =
            abs ((flow_dst.(f) / per_region) - (flow_src.(f) / per_region))
          in
          if s = span then begin
            incr fs;
            let st = res.Shardnet.r_flows.(f) in
            del := !del + st.Shardnet.f_delivered;
            dsum := !dsum +. st.Shardnet.f_delay_sum;
            if st.Shardnet.f_delay_max > !dmax then
              dmax := st.Shardnet.f_delay_max;
            qsum := !qsum +. st.Shardnet.f_qdelay_sum
          end
        done;
        {
          Csz.Extensions.sc_span = span;
          sc_flows = !fs;
          sc_delivered = !del;
          sc_mean_delay =
            (if !del = 0 then 0. else pt (!dsum /. float_of_int !del));
          sc_max_delay = pt !dmax;
          sc_mean_qdelay =
            (if !del = 0 then 0. else pt (!qsum /. float_of_int !del));
        })
  in
  let sent = ref 0 and dropped = ref 0 in
  Array.iter
    (fun (k : Shardnet.link_stat) ->
      sent := !sent + k.Shardnet.k_sent;
      dropped := !dropped + k.Shardnet.k_dropped)
    res.Shardnet.r_links;
  let delivered_total =
    Array.fold_left
      (fun acc (s : Shardnet.flow_stat) -> acc + s.Shardnet.f_delivered)
      0 res.Shardnet.r_flows
  in
  let sc =
    {
      Csz.Extensions.sc_rows = rows;
      sc_switches = n_switches;
      sc_links = Array.length link_specs;
      sc_flow_count = flows;
      sc_delivered_total = delivered_total;
      sc_sent = !sent;
      sc_dropped = !dropped;
      sc_shards = res.Shardnet.r_shards;
      sc_windows = res.Shardnet.r_windows;
      sc_lookahead = res.Shardnet.r_lookahead;
      sc_cut_links = res.Shardnet.r_cut_links;
      sc_exchanged = res.Shardnet.r_drained;
      sc_fired = res.Shardnet.r_fired;
      sc_check = None;
      sc_metrics = None;
      sc_series = None;
    }
  in
  Span.leave b ext_s;
  Span.leave b run_s;
  let shard_bufs =
    Array.to_list windows |> List.filter_map (Option.map fst)
  in
  {
    sc;
    sc_engines =
      Array.map (fun e -> Engine.stats (Option.get e)) engines;
    sc_pending_hwm =
      Array.fold_left
        (fun acc e -> max acc (Engine.heap_depth_hwm (Option.get e)))
        0 engines;
    sc_arena_hwm =
      List.fold_left (fun acc bb -> max acc bb.Span.arena_hwm) 0 shard_bufs;
    sc_remade = res.Shardnet.r_drained;
  }
