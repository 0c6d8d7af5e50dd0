open Ispn_sim

type flavor = Tahoe | Reno

type config = {
  flavor : flavor;
  packet_bits : int;
  max_window : int;
  init_ssthresh : int;
  min_rto : float;
  max_rto : float;
  ack_delay : float;
}

let default_config =
  {
    flavor = Tahoe;
    packet_bits = Ispn_util.Units.packet_bits;
    max_window = 64;
    init_ssthresh = 32;
    min_rto = 0.1;
    max_rto = 60.0;
    ack_delay = 1e-3;
  }

(* The sender's per-ack floats, in an all-float record so each store is
   unboxed.  [rto] stays a field of [t]: it is read on every timer arming
   and handed to [Engine.schedule_after], which would box a value kept
   flat, whereas a field of a mixed record already holds a box; it is
   written only once per RTT sample or timeout. *)
type fstate = {
  mutable cwnd : float;  (* congestion window, segments *)
  mutable ssthresh : float;
  mutable srtt : float;  (* meaningful once [rtt_sampled] *)
  mutable rttvar : float;
  mutable timed_at : float;
}

type t = {
  engine : Engine.t;
  flow : int;
  cfg : config;
  send : Packet.t -> unit;
  (* Sender state. *)
  mutable running : bool;
  mutable una : int;  (* lowest unacknowledged sequence number *)
  mutable next : int;  (* next sequence number to transmit *)
  f : fstate;
  mutable dupacks : int;
  mutable timer : Engine.handle;  (* the pending timeout, if [armed] *)
  mutable armed : bool;
  mutable rto : float;
  mutable rtt_sampled : bool;
  mutable timed_seq : int;  (* Karn: time only fresh transmissions; -1 = none *)
  mutable in_recovery : bool;  (* Reno fast recovery in progress *)
  mutable segments_sent : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable fast_recoveries : int;
  (* Receiver state. *)
  mutable rcv_next : int;  (* all seq < rcv_next delivered in order *)
  ooo : (int, unit) Hashtbl.t;  (* out-of-order segments held back *)
  mutable delivered : int;
  (* Acks return after the constant [ack_delay], so they fire in the
     order they were sent: [acks] holds the cumulative ack numbers in
     flight, oldest first, and the one [on_ack_due] action pops the head.
     [on_timeout_due] is the retransmission timer's action.  Both are
     built at [create]. *)
  acks : int Ispn_util.Ring.t;
  mutable on_ack_due : unit -> unit;
  mutable on_timeout_due : unit -> unit;
}

(* [Stdlib.min]/[max] are polymorphic: a C call on boxed floats.  These
   return the same bits. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let disarm_timer t =
  if t.armed then begin
    Engine.cancel t.engine t.timer;
    t.armed <- false
  end

let effective_window t =
  let w = int_of_float t.f.cwnd in
  let w = if w <= t.cfg.max_window then w else t.cfg.max_window in
  if w >= 1 then w else 1

let transmit t seq ~fresh =
  let now = Engine.now t.engine in
  let pkt =
    Packet.alloc ~flow:t.flow ~seq ~size_bits:t.cfg.packet_bits ~kind:Data
      ~created:now
  in
  t.segments_sent <- t.segments_sent + 1;
  if not fresh then t.retransmissions <- t.retransmissions + 1;
  (* RTT-sample one segment at a time; retransmitted sequence numbers are
     never timed (Karn's rule). *)
  if fresh && t.timed_seq < 0 then begin
    t.timed_seq <- seq;
    t.f.timed_at <- now
  end;
  t.send pkt

let arm_timer t =
  disarm_timer t;
  if t.una < t.next && t.running then begin
    t.timer <- Engine.schedule_after t.engine ~delay:t.rto t.on_timeout_due;
    t.armed <- true
  end

let on_timeout t =
  t.armed <- false;
  if t.running && t.una < t.next then begin
    t.timeouts <- t.timeouts + 1;
    t.f.ssthresh <- fmax (t.f.cwnd /. 2.) 2.;
    t.f.cwnd <- 1.;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.rto <- fmin (2. *. t.rto) t.cfg.max_rto;
    t.timed_seq <- -1;
    (* Go-back-N: rewind and let the window re-send from the hole. *)
    t.next <- t.una;
    transmit t t.next ~fresh:false;
    t.next <- t.next + 1;
    arm_timer t
  end

let try_send t =
  if t.running then begin
    let window = effective_window t in
    while t.next < t.una + window do
      transmit t t.next ~fresh:true;
      t.next <- t.next + 1
    done;
    if not t.armed then arm_timer t
  end

(* Jacobson/Karels, on the sample ending now. *)
let update_rtt t ~now =
  let f = t.f in
  let sample = now -. f.timed_at in
  if not t.rtt_sampled then begin
    t.rtt_sampled <- true;
    f.srtt <- sample;
    f.rttvar <- sample /. 2.
  end
  else begin
    let err = sample -. f.srtt in
    f.srtt <- f.srtt +. (0.125 *. err);
    f.rttvar <- f.rttvar +. (0.25 *. (Float.abs err -. f.rttvar))
  end;
  t.rto <- fmin t.cfg.max_rto (fmax t.cfg.min_rto (f.srtt +. (4. *. f.rttvar)))

let fast_retransmit t =
  t.fast_recoveries <- t.fast_recoveries + 1;
  t.f.ssthresh <- fmax (t.f.cwnd /. 2.) 2.;
  t.timed_seq <- -1;
  (match t.cfg.flavor with
  | Tahoe ->
      (* Collapse and go-back-N from the hole. *)
      t.f.cwnd <- 1.;
      t.dupacks <- 0;
      t.next <- t.una;
      transmit t t.next ~fresh:false;
      t.next <- t.next + 1
  | Reno ->
      (* Retransmit only the hole, halve the window and inflate it by the
         three segments the dupacks say have left the network. *)
      transmit t t.una ~fresh:false;
      t.f.cwnd <- t.f.ssthresh +. 3.;
      t.in_recovery <- true);
  arm_timer t;
  try_send t

let on_ack t ack =
  if not t.running then ()
  else if ack > t.una then begin
    let n_acked = ack - t.una in
    t.una <- ack;
    t.dupacks <- 0;
    let f = t.f in
    if t.in_recovery then begin
      (* Classic Reno: first new ack deflates the window and ends
         recovery. *)
      t.in_recovery <- false;
      f.cwnd <- f.ssthresh
    end;
    if t.timed_seq >= 0 && ack > t.timed_seq then begin
      update_rtt t ~now:(Engine.now t.engine);
      t.timed_seq <- -1
    end;
    (* Slow start: one segment per ack; congestion avoidance: one segment
       per window's worth of acks. *)
    for _ = 1 to n_acked do
      if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. 1.
      else f.cwnd <- f.cwnd +. (1. /. f.cwnd)
    done;
    if t.una = t.next then disarm_timer t else arm_timer t;
    try_send t
  end
  else begin
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 then fast_retransmit t
    else if t.in_recovery && t.dupacks > 3 then begin
      (* Each further dupack signals another departure: inflate. *)
      t.f.cwnd <- t.f.cwnd +. 1.;
      try_send t
    end
  end

let receive t pkt =
  let seq = Packet.seq pkt in
  (* The data segment dies at the receiver; the ack is modelled as a pure
     event (no packet travels back). *)
  Packet.free pkt;
  (* An in-order segment is delivered at once; only a segment past a
     hole is held back in [ooo]. *)
  if seq = t.rcv_next then begin
    t.rcv_next <- t.rcv_next + 1;
    t.delivered <- t.delivered + 1
  end
  else if seq > t.rcv_next then Hashtbl.replace t.ooo seq ();
  if Hashtbl.length t.ooo > 0 then
    while Hashtbl.mem t.ooo t.rcv_next do
      Hashtbl.remove t.ooo t.rcv_next;
      t.rcv_next <- t.rcv_next + 1;
      t.delivered <- t.delivered + 1
    done;
  Ispn_util.Ring.push t.acks t.rcv_next;
  ignore (Engine.schedule_after t.engine ~delay:t.cfg.ack_delay t.on_ack_due)

let create ~engine ~flow ?(config = default_config) ~send () =
  let t =
    {
      engine;
      flow;
      cfg = config;
      send;
      running = false;
      una = 0;
      next = 0;
      f =
        {
          cwnd = 1.;
          ssthresh = float_of_int config.init_ssthresh;
          srtt = 0.;
          rttvar = 0.;
          timed_at = 0.;
        };
      dupacks = 0;
      timer = Engine.no_handle;
      armed = false;
      rto = 1.0;
      rtt_sampled = false;
      timed_seq = -1;
      in_recovery = false;
      segments_sent = 0;
      retransmissions = 0;
      timeouts = 0;
      fast_recoveries = 0;
      rcv_next = 0;
      ooo = Hashtbl.create 64;
      delivered = 0;
      acks = Ispn_util.Ring.create ~dummy:0 ();
      on_ack_due = ignore;
      on_timeout_due = ignore;
    }
  in
  t.on_ack_due <- (fun () -> on_ack t (Ispn_util.Ring.pop_exn t.acks));
  t.on_timeout_due <- (fun () -> on_timeout t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    try_send t
  end

let stop t =
  t.running <- false;
  disarm_timer t

let segments_sent t = t.segments_sent
let retransmissions t = t.retransmissions
let delivered t = t.delivered
let timeouts t = t.timeouts
let fast_recoveries t = t.fast_recoveries
let cwnd t = t.f.cwnd

let goodput_bps t ~elapsed =
  if elapsed <= 0. then 0.
  else float_of_int (t.delivered * t.cfg.packet_bits) /. elapsed

let loss_rate t =
  if t.segments_sent = 0 then 0.
  else float_of_int t.retransmissions /. float_of_int t.segments_sent
