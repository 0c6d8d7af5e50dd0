open Ispn_sim
open Ispn_util

let idle_mean ~avg_rate_pps ~peak_rate_pps ~burst_mean =
  burst_mean *. ((1. /. avg_rate_pps) -. (1. /. peak_rate_pps))

let create ~engine ~prng ~flow ~avg_rate_pps ?peak_rate_pps ?(burst_mean = 5.)
    ?(packet_bits = Units.packet_bits) ~emit () =
  let peak = Option.value peak_rate_pps ~default:(2. *. avg_rate_pps) in
  assert (avg_rate_pps > 0. && peak > avg_rate_pps);
  let idle = idle_mean ~avg_rate_pps ~peak_rate_pps:peak ~burst_mean in
  assert (idle > 0.);
  (* The peak-rate spacing, boxed once here rather than per packet. *)
  let gap = 1. /. peak in
  let running = ref false in
  (* Bumped by every [start]: a chain armed before a stop/start pair finds
     a newer epoch when its pending event fires, and ends there. *)
  let epoch = ref 0 in
  let count = ref 0 in
  let next_seq = ref 0 in
  let send () =
    let pkt =
      Packet.alloc ~flow ~seq:!next_seq ~size_bits:packet_bits ~kind:Data
        ~created:(Engine.now engine)
    in
    incr next_seq;
    incr count;
    emit pkt
  in
  (* One chain per [start], its event actions built once and rescheduled
     for every packet and idle period; [left] counts the packets of the
     current burst still to send, this one included.  [burst] emits one
     packet then either continues the burst at the peak-rate spacing or
     idles for an exponential period.  The idle clock starts after the
     last packet's peak-rate slot, so a burst of N packets occupies N/P
     seconds and the mean rate satisfies the Appendix relation
     1/A = I/B + 1/P exactly. *)
  let chain () =
    let mine = !epoch in
    let left = ref 0 in
    let rec burst () =
      if !running then begin
        send ();
        ignore (Engine.schedule_after engine ~delay:gap continue)
      end
    and continue () =
      if !epoch = mine then
        if !left > 1 then begin
          decr left;
          burst ()
        end
        else go_idle ()
    and go_idle () =
      let pause = Dist.exponential prng ~mean:idle in
      ignore (Engine.schedule_after engine ~delay:pause start_burst)
    and start_burst () =
      if !epoch = mine && !running then begin
        left := Dist.geometric prng ~mean:burst_mean;
        burst ()
      end
    in
    (* Begin in the idle state so sources with distinct PRNG streams
       desynchronize immediately. *)
    go_idle ()
  in
  let start () =
    if not !running then begin
      running := true;
      incr epoch;
      chain ()
    end
  in
  let stop () = running := false in
  { Source.start; stop; generated = (fun () -> !count) }
