open Ispn_sim
open Ispn_util

let create ~engine ~prng ~flow ~rate_pps ?(packet_bits = Units.packet_bits)
    ~emit () =
  assert (rate_pps > 0.);
  let running = ref false in
  let count = ref 0 in
  let next_seq = ref 0 in
  let rec tick () =
    if !running then begin
      let pkt =
        Packet.alloc ~flow ~seq:!next_seq ~size_bits:packet_bits ~kind:Data
          ~created:(Engine.now engine)
      in
      incr next_seq;
      incr count;
      emit pkt;
      let gap = Dist.exponential prng ~mean:(1. /. rate_pps) in
      ignore (Engine.schedule_after engine ~delay:gap tick)
    end
  in
  let start () =
    if not !running then begin
      running := true;
      let gap = Dist.exponential prng ~mean:(1. /. rate_pps) in
      ignore (Engine.schedule_after engine ~delay:gap tick)
    end
  in
  let stop () = running := false in
  { Source.start; stop; generated = (fun () -> !count) }
