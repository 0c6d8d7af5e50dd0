(* Shared scaffolding for scheduler tests: drive a qdisc through a real link
   on a real engine and collect per-packet service records. *)
open Ispn_sim

type record = {
  r_flow : int;
  r_seq : int;
  r_wait : float;  (* queueing delay at the hop, seconds *)
  r_done : float;  (* delivery time *)
}

let pkt ?(flow = 0) ?(seq = 0) ?(created = 0.) ?(size_bits = 1000) () =
  Packet.make ~flow ~seq ~size_bits ~created ()

(* Run [arrivals = (time, packet) list] through [qdisc] on a [rate_bps] link;
   returns delivery records in completion order. *)
let run_schedule ?(rate_bps = 1e6) ~qdisc ~arrivals ~until () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rate_bps ~qdisc ~name:"hop" () in
  let out = ref [] in
  Link.set_receiver link (fun p ->
      out :=
        {
          r_flow = (Packet.flow p);
          r_seq = (Packet.seq p);
          r_wait = (Packet.qdelay_total p);
          r_done = Engine.now engine;
        }
        :: !out);
  List.iter
    (fun (time, p) ->
      ignore (Engine.schedule engine ~at:time (fun () -> Link.send link p)))
    arrivals;
  Engine.run engine ~until;
  List.rev !out

(* [n] packets of [flow] arriving back-to-back at [at]. *)
let burst ~flow ~at ~n =
  List.init n (fun i -> (at, pkt ~flow ~seq:i ~created:at ()))

(* One packet of [flow] every [gap] seconds starting at [at]. *)
let paced ~flow ~at ~gap ~n =
  List.init n (fun i ->
      let t = at +. (gap *. float_of_int i) in
      (t, pkt ~flow ~seq:i ~created:t ()))

let flows_served records flow = List.filter (fun r -> r.r_flow = flow) records

let mean_wait records =
  match records with
  | [] -> 0.
  | _ ->
      List.fold_left (fun acc r -> acc +. r.r_wait) 0. records
      /. float_of_int (List.length records)

let max_wait records = List.fold_left (fun acc r -> Stdlib.max acc r.r_wait) 0. records

(* [contains hay needle]: substring test for rendered output. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0
