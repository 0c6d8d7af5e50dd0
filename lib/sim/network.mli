(** Topology assembly: switches joined by directed links, with fewest-hops
    routes.

    The paper's multi-hop experiments all run on the Figure-1 chain: hosts
    attached to a line of switches joined by equal-rate links, with every
    flow travelling in the same direction.  [chain] builds that shape for an
    arbitrary switch count and per-link qdisc choice; [graph] builds any
    directed graph the same way.  Flows are installed as source-routed
    paths along the shortest route.  Routing is static, computed when a
    flow is installed — the paper leaves routing out of scope. *)

(** Fewest-hops routes over a directed switch graph, shared with
    {!Shardnet}.  Unit weights, ties broken toward the lower switch id;
    one breadth-first tree per ingress, computed on first use. *)
module Routes : sig
  type t

  val create : n_switches:int -> links:(int * int) array -> t
  (** Link [i] runs from [fst links.(i)] to [snd links.(i)].  Raises
      [Invalid_argument] on an endpoint outside [[0, n_switches)], a self
      loop or a duplicate link. *)

  val path : t -> ingress:int -> egress:int -> int list option
  (** Link indices from [ingress] to [egress]: [Some []] when they are
      equal, [None] when [egress] is unreachable.  Raises
      [Invalid_argument] on a switch out of range.  Not safe to call
      from two domains at once (the trees are memoized). *)
end

type t

val graph :
  engine:Engine.t ->
  n_switches:int ->
  links:(int * int) list ->
  rate_bps:float ->
  ?prop_delay:float ->
  ?recorder:Ispn_obs.Recorder.t ->
  qdisc_of:(int -> Qdisc.t) ->
  unit ->
  t
(** [graph ~n_switches ~links ~qdisc_of ()] creates switches
    [0 .. n_switches-1] and, for the [i]-th [(src, dst)] of [links], link
    [i] from [src] to [dst] through [qdisc_of i], named [L-<i+1>].
    [recorder], when given, is shared by every link, which stamps events
    with its index [i] — the per-hop attribution in [Ispn_obs.Attrib]
    relies on this numbering.  Raises [Invalid_argument] as
    {!Routes.create} does. *)

val chain :
  engine:Engine.t ->
  n_switches:int ->
  rate_bps:float ->
  ?prop_delay:float ->
  ?recorder:Ispn_obs.Recorder.t ->
  qdisc_of:(int -> Qdisc.t) ->
  unit ->
  t
(** [graph] over links [(i, i+1)]: link [i] carries traffic from switch
    [i] to switch [i+1]. *)

val engine : t -> Engine.t
val n_switches : t -> int
val n_links : t -> int
val switch : t -> int -> Node.t
val link : t -> int -> Link.t

val path : t -> ingress:int -> egress:int -> int list option
(** {!Routes.path} over this network's links. *)

val install_flow :
  t -> flow:int -> ingress:int -> egress:int -> sink:(Packet.t -> unit) -> unit
(** Route [flow] along [path ~ingress ~egress] and deliver to [sink] at
    switch [egress].  A flow with [ingress = egress] is delivered locally
    without queueing (used by probes colocated with the source).  On a
    chain the path length in the paper's sense is [egress - ingress]
    inter-switch links.  Raises [Invalid_argument] on a switch out of
    range and [Failure] when [egress] is unreachable. *)

val inject : t -> at_switch:int -> Packet.t -> unit
(** Host-to-switch links are infinitely fast (Appendix), so injection is a
    direct call into the switch. *)

val total_dropped : t -> int
(** Sum of buffer drops over all links. *)

val utilization : t -> link:int -> elapsed:float -> float

val register_metrics : t -> Ispn_obs.Metrics.t -> unit
(** Register every link's counters under [link.<i>] (0-based link index);
    see {!Link.register_metrics}. *)
