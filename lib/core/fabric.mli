(** A set of CSZ-scheduled links with path resolution — the substrate the
    {!Service} layer manages.

    The paper's experiments run on the Figure-1 chain, but the architecture
    is topology-agnostic: every output link runs the unified scheduler and
    admission control reasons per-link along a flow's path.  A fabric
    packages exactly that: an {!Ispn_sim.Network} whose every link runs
    the unified scheduler, with that scheduler's {!Csz_sched} state per
    link. *)

type t

val network : t -> Ispn_sim.Network.t

val engine : t -> Ispn_sim.Engine.t
val n_links : t -> int
val n_switches : t -> int
val sched : t -> link:int -> Csz_sched.t
val link : t -> int -> Ispn_sim.Link.t

val path : t -> ingress:int -> egress:int -> int list option
(** {!Ispn_sim.Network.path}: link indices from [ingress] to [egress]. *)

val install_flow :
  t -> flow:int -> ingress:int -> egress:int -> sink:(Ispn_sim.Packet.t -> unit) ->
  unit
(** {!Ispn_sim.Network.install_flow}; raises [Failure] when no path
    exists. *)

val inject : t -> at_switch:int -> Ispn_sim.Packet.t -> unit

(** {2 Constructors}

    Both build every link with the unified scheduler; [config] defaults to
    {!Csz_sched.default_config} with the given link rate and class count. *)

val chain :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  ?link_rate_bps:float ->
  ?n_classes:int ->
  ?buffer_packets:int ->
  unit ->
  t
(** The Figure-1 shape: switches 0..n-1, link [i] from switch [i] to
    [i+1]. *)

val topology :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  links:(int * int) list ->
  ?link_rate_bps:float ->
  ?n_classes:int ->
  ?buffer_packets:int ->
  unit ->
  t
(** Arbitrary directed links, built by {!Ispn_sim.Network.graph}: link [i]
    is the [i]-th entry of [links].  Duplicate links and self-loops raise
    [Invalid_argument]. *)
