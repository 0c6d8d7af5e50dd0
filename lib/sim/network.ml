module Routes = struct
  type t = {
    n : int;
    src : int array; (* link -> source switch *)
    dst : int array; (* link -> destination switch *)
    out : int array array; (* switch -> outgoing links, by ascending dst *)
    trees : int array array;
        (* ingress -> the link that first reached each switch (-1: none);
           [[||]] until that ingress is first routed *)
  }

  let create ~n_switches ~links =
    let src = Array.map fst links and dst = Array.map snd links in
    Array.iteri
      (fun l s ->
        let d = dst.(l) in
        if s < 0 || s >= n_switches || d < 0 || d >= n_switches then
          invalid_arg "Network: link endpoint out of range";
        if s = d then invalid_arg "Network: self loop")
      src;
    let out = Array.make n_switches [] in
    for l = Array.length links - 1 downto 0 do
      out.(src.(l)) <- l :: out.(src.(l))
    done;
    let sorted ls =
      let a = Array.of_list ls in
      Array.sort (fun x y -> Int.compare dst.(x) dst.(y)) a;
      for k = 1 to Array.length a - 1 do
        if dst.(a.(k)) = dst.(a.(k - 1)) then
          invalid_arg "Network: duplicate link"
      done;
      a
    in
    {
      n = n_switches;
      src;
      dst;
      out = Array.map sorted out;
      trees = Array.make n_switches [||];
    }

  (* Unit-weight shortest paths = breadth-first search; neighbours are
     visited in ascending switch id so ties break toward the lower id.  A
     switch's entry is set once, when first reached, so the full tree
     gives every egress the path an early-exit search would. *)
  let tree t ingress =
    let memo = t.trees.(ingress) in
    if Array.length memo > 0 then memo
    else begin
      let via = Array.make t.n (-1) in
      let queue = Array.make t.n ingress in
      let tail = ref 1 in
      let head = ref 0 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Array.iter
          (fun l ->
            let v = t.dst.(l) in
            if v <> ingress && via.(v) < 0 then begin
              via.(v) <- l;
              queue.(!tail) <- v;
              incr tail
            end)
          t.out.(u)
      done;
      t.trees.(ingress) <- via;
      via
    end

  let check t ~ingress ~egress =
    if ingress < 0 || ingress >= t.n || egress < 0 || egress >= t.n then
      invalid_arg "Network: switch out of range"

  (* Top level, not a closure, so a lookup allocates only its result. *)
  let rec walk src via ingress v acc =
    if v = ingress then acc
    else
      let l = via.(v) in
      walk src via ingress src.(l) (l :: acc)

  let path t ~ingress ~egress =
    check t ~ingress ~egress;
    if ingress = egress then Some []
    else
      let via = tree t ingress in
      if via.(egress) < 0 then None
      else Some (walk t.src via ingress egress [])
end

type t = {
  engine : Engine.t;
  switches : Node.t array;
  links : Link.t array;
  forwards : Node.port array;  (* [Node.Forward] of each link, built once *)
  routes : Routes.t;
}

let graph ~engine ~n_switches ~links ~rate_bps ?(prop_delay = 0.) ?recorder
    ~qdisc_of () =
  if n_switches < 1 then invalid_arg "Network.graph: no switches";
  let ends = Array.of_list links in
  let routes = Routes.create ~n_switches ~links:ends in
  let switches =
    Array.init n_switches (fun i ->
        Node.create ~name:(Printf.sprintf "S-%d" (i + 1)))
  in
  let links =
    Array.mapi
      (fun i (_, dst) ->
        let link =
          Link.create ~engine ~rate_bps ~prop_delay ~id:i ?recorder
            ~qdisc:(qdisc_of i)
            ~name:(Printf.sprintf "L-%d" (i + 1))
            ()
        in
        let next = switches.(dst) in
        Link.set_receiver link (fun pkt -> Node.receive next pkt);
        link)
      ends
  in
  {
    engine;
    switches;
    links;
    forwards = Array.map (fun l -> Node.Forward l) links;
    routes;
  }

let chain ~engine ~n_switches ~rate_bps ?prop_delay ?recorder ~qdisc_of () =
  graph ~engine ~n_switches
    ~links:(List.init (n_switches - 1) (fun i -> (i, i + 1)))
    ~rate_bps ?prop_delay ?recorder ~qdisc_of ()

let engine t = t.engine
let n_switches t = Array.length t.switches
let n_links t = Array.length t.links
let switch t i = t.switches.(i)
let link t i = t.links.(i)
let path t ~ingress ~egress = Routes.path t.routes ~ingress ~egress

(* Walks the tree back from [egress] rather than building the path list,
   and shares each link's port, so installing a flow allocates only its
   route entries. *)
let install_flow t ~flow ~ingress ~egress ~sink =
  Routes.check t.routes ~ingress ~egress;
  if ingress <> egress then begin
    let via = Routes.tree t.routes ingress in
    if via.(egress) < 0 then
      failwith
        (Printf.sprintf "Network.install_flow: switch %d unreachable from %d"
           egress ingress);
    let v = ref egress in
    while !v <> ingress do
      let l = via.(!v) in
      v := t.routes.Routes.src.(l);
      Node.add_route t.switches.(!v) ~flow t.forwards.(l)
    done
  end;
  Node.add_route t.switches.(egress) ~flow (Node.Deliver sink)

let inject t ~at_switch pkt = Node.receive t.switches.(at_switch) pkt

let total_dropped t =
  Array.fold_left (fun acc l -> acc + Link.dropped l) 0 t.links

let utilization t ~link ~elapsed = Link.utilization t.links.(link) ~elapsed

let register_metrics t m =
  Array.iteri
    (fun i l -> Link.register_metrics l m ~prefix:(Printf.sprintf "link.%d" i))
    t.links
