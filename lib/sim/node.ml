type port = Forward of Link.t | Deliver of (Packet.t -> unit)

type t = {
  node_name : string;
  routes : (int, port) Hashtbl.t;
  mutable received : int;
}

let create ~name = { node_name = name; routes = Hashtbl.create 32; received = 0 }
let name t = t.node_name
let add_route t ~flow port = Hashtbl.replace t.routes flow port

let receive t pkt =
  t.received <- t.received + 1;
  let pa = Packet.arena () in
  pa.Packet.hops.(pkt) <- pa.Packet.hops.(pkt) + 1;
  let flow = pa.Packet.flow.(pkt) in
  (* [find], not [find_opt]: the route lookup runs once per packet per
     hop, and [find_opt] allocates its [Some]. *)
  match Hashtbl.find t.routes flow with
  | Forward link -> Link.send link pkt
  | Deliver f -> f pkt
  | exception Not_found ->
      failwith
        (Printf.sprintf "Node %s: no route for flow %d" t.node_name flow)

let received t = t.received
