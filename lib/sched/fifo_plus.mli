(** FIFO+ — FIFO sharing correlated across hops (Section 6).

    Each switch measures the average queueing delay of the sharing class; a
    departing packet adds [its delay - class average] to the jitter-offset
    field in its header; the next switch orders its queue as if the packet
    had arrived at its *expected* arrival time [actual arrival - offset].  A
    packet that was unlucky upstream (positive offset) is thus scheduled as
    if it had arrived earlier, and vice versa, inducing FIFO-style "equal
    jitter for everyone" across the whole path rather than per hop.  Table 2
    shows the payoff: the 99.9th-percentile delay grows much more slowly
    with path length than under FIFO or WFQ.

    The class-average delay is an EWMA.  The default gain is deliberately slow
    (1/4096, a time constant of several seconds at the paper's packet rates):
    the offset a packet exports must be measured against the class's
    {e long-run} average.  A fast-adapting average rises during a burst and
    mutes the offsets of exactly the packets FIFO+ exists to help, which
    collapses the mechanism back to plain FIFO (the ablation bench
    reproduces this).

    Section 10's late-packet discard is available as an option: a packet
    arriving with an offset already above a threshold is a target for
    immediate discard, since it has no chance of making its play-back
    point. *)

type state
(** Measurement side of one FIFO+ class at one switch. *)

val avg_delay : state -> float
(** Current EWMA of this class's queueing delay at this switch (seconds). *)

val discarded : state -> int
(** Packets dropped by the late-discard rule (0 unless enabled). *)

val create :
  ?ewma_gain:float ->
  ?discard_late_above:float ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?label:string ->
  pool:Ispn_sim.Qdisc.pool ->
  unit ->
  state * Ispn_sim.Qdisc.t
(** [discard_late_above] is an offset threshold in seconds; omitted means
    never discard.  [metrics] registers, under [qdisc.fifo_plus.<label>]
    (label defaults to ["0"]): pull gauges [.avg_delay] and [.discarded],
    plus a push distribution [.offset.{count,mean,min,max}] of the
    jitter-offset each departing packet carries away.  The offset push is
    one [Stats.add_from] per dequeue, skipped by a single branch when metrics
    are off. *)
