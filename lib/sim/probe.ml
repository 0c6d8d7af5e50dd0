open Ispn_util

type t = {
  qdelays : Fvec.t;
  latencies : Fvec.t;
  latency : float array;  (* one slot: this delivery's latency *)
  mutable received : int;
}

let create () =
  {
    qdelays = Fvec.create ();
    latencies = Fvec.create ();
    latency = [| 0. |];
    received = 0;
  }

let sink t ~engine pkt =
  t.received <- t.received + 1;
  let pa = Packet.arena () in
  (* The clock is read through [Engine.clock] and both samples reach the
     vectors through array slots: as float results or arguments of
     another module's functions, each would be boxed. *)
  Fvec.push_from t.qdelays pa.Packet.qdelay_total pkt;
  t.latency.(0) <- (Engine.clock engine).Engine.v -. pa.Packet.created.(pkt);
  Fvec.push_from t.latencies t.latency 0;
  (* The probe is a terminal sink: the packet dies here. *)
  Packet.free pkt

let port t ~engine = Node.Deliver (fun pkt -> sink t ~engine pkt)
let received t = t.received
let qdelays t = t.qdelays
let latencies t = t.latencies

let to_units ~link_rate_bps ~packet_bits s =
  Units.packet_times ~link_rate_bps ~packet_bits s

let mean_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t =
  let sum = Fvec.fold ( +. ) 0. t.qdelays in
  let n = Fvec.length t.qdelays in
  if n = 0 then 0.
  else to_units ~link_rate_bps ~packet_bits (sum /. float_of_int n)

let percentile_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t p =
  to_units ~link_rate_bps ~packet_bits (Quantile.percentile t.qdelays p)

let max_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t =
  let m = Fvec.fold Stdlib.max neg_infinity t.qdelays in
  if Fvec.length t.qdelays = 0 then 0.
  else to_units ~link_rate_bps ~packet_bits m
