(** GPS virtual time.

    Shared by {!Wfq} and the unified CSZ scheduler.  Virtual time [V(t)]
    advances at rate [C / Phi(t)] where [C] is the link rate and [Phi(t)] the
    summed clock rates of the currently backlogged flows (the fluid-flow
    dynamics of Section 4).  A flow's packet gets finish tag
    [max (V(arrival), previous finish tag of the flow) + size / clock_rate];
    serving packets in increasing tag order approximates GPS.

    The active set is tracked at packet granularity (a flow is active while
    it has packets queued), the standard packetized approximation of the
    fluid model.  When the system drains completely, the busy period ends
    and virtual time resets to zero.  Every finish tag of the ended period
    must read as zero from then on; rather than clearing per-flow state
    (work proportional to the number of flow slots, on every idle), callers
    stamp each stored tag with the {!period} it was written in and treat a
    tag whose stamp differs from the current {!period} as zero. *)

type t

type state = private {
  mutable v : float;
  mutable last_update : float;
  mutable active_weight : float;
}
(** The clock's floats, an all-float record: a per-packet caller reads
    [(state t).v] as an unboxed load where {!v} boxes its result. *)

val state : t -> state
(** The same record for the life of [t]; bind it once. *)

val create : link_rate_bps:float -> t

val advance : t -> now:float -> unit
(** Integrate [V] up to [now].  Call before reading {!v} or changing the
    active set. *)

val v : t -> float

val period : t -> int
(** Busy periods completed so far: starts at 0 and grows by one each time
    [V] resets (on either path below).  A finish tag written while
    [period t = p] is valid only while [period t] is still [p]. *)

val flow_activated : t -> weight:float -> unit
(** A flow with clock rate [weight] (bits/s) became backlogged. *)

val flow_deactivated : t -> now:float -> weight:float -> unit
(** A flow drained.  When the last flow deactivates the busy period ends:
    [V] resets to 0 and {!period} grows by one. *)

val flow_activated_from : t -> float array -> int -> unit
val flow_deactivated_from : t -> now:float -> float array -> int -> unit
(** The two calls above with [weight] read from [a.(i)] — a per-flow
    weight array, or a one-slot cell — since a float argument to a
    function of another module is boxed. *)

val adjust_active : t -> now:float -> delta:float -> unit
(** Change the weight of a currently-active flow in place (the unified
    scheduler re-sizes pseudo-flow 0 when guaranteed reservations change).
    Advances [V] first so past service is accounted at the old weight.

    If the adjustment leaves the summed active weight at (or, through
    float drift, within an epsilon of) zero, the busy period ends exactly
    as in {!flow_deactivated} — [V] resets to 0 and {!period} grows —
    but the active {e count} is kept: the flows are still backlogged and
    will deactivate through {!flow_deactivated} as they drain. *)

val active_weight : t -> float
