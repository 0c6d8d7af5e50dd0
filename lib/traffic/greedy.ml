open Ispn_sim
open Ispn_util

let create ~engine ~flow ~rate_pps ~burst_packets
    ?(packet_bits = Units.packet_bits) ?(overdrive = 1.0) ~emit () =
  assert (rate_pps > 0. && burst_packets >= 0 && overdrive > 0.);
  let running = ref false in
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
  let rec steady () =
    if !running then begin
      send ();
      ignore
        (Engine.schedule_after engine
           ~delay:(1. /. (rate_pps *. overdrive))
           steady)
    end
  in
  let start () =
    if not !running then begin
      running := true;
      (* The opening burst drains the full bucket instantaneously. *)
      for _ = 1 to burst_packets do
        send ()
      done;
      ignore
        (Engine.schedule_after engine
           ~delay:(1. /. (rate_pps *. overdrive))
           steady)
    end
  in
  let stop () = running := false in
  { Source.start; stop; generated = (fun () -> !count) }
