(** Float-keyed binary min-heap with FIFO tie-breaking — the ranked-queue
    hot path shared by every time-stamp and deadline scheduler.

    Every ranked scheduler in the library (WFQ, VirtualClock, EDF, FIFO+,
    Jitter-EDD, and the inner queues of the unified CSZ scheduler) orders
    packets by a float rank — a virtual finish time or a deadline — and
    breaks ties in arrival order.  This heap bakes that exact shape in:
    structure-of-arrays storage ([float array] keys, [int array] tie-break
    sequence numbers, payload array), monomorphic float comparison (no
    polymorphic-[compare] C call per sift step, no closure dispatch), and a
    non-allocating [is_empty]/[pop_exn] drain.  The steady-state
    push→pop cycle allocates nothing.

    Equal keys drain in ascending sequence order.  {!push} stamps each
    element from an internal monotone counter, so pushes drain FIFO within
    a key; {!push_pinned} re-inserts an element under a caller-kept
    sequence number (a scheduler un-committing a packet, Jitter-EDD
    promoting a held packet), preserving its original rank among its
    contemporaries.  Pinned sequence numbers must come from the same
    counter-space as the heap's own stamps (i.e. from entries previously
    popped off this heap, or a single external counter used for every push)
    or ties become ambiguous.

    Keys must not be NaN (every rank in the library is a finite time).
    The engine's event queue is a separate structure, {!Wheel}. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] (default 16) is honored immediately: all three arrays are
    allocated to it up front, so a correctly-sized heap never reallocates.
    [dummy] fills vacated payload slots so popped elements are not kept
    live by the heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:float -> 'a -> unit
(** Insert under [key], tie-broken FIFO against other {!push}es. *)

val push_pinned : 'a t -> key:float -> seq:int -> 'a -> unit
(** Insert under [key] with an explicit tie-break rank (see above). *)

val min_key_exn : 'a t -> float
(** Key of the minimum element; raises [Invalid_argument] when empty. *)

val min_seq_exn : 'a t -> int
(** Sequence number of the minimum element; raises when empty.  Read it
    before {!pop_exn} when re-inserting via {!push_pinned}. *)

val peek_exn : 'a t -> 'a
(** Minimum payload without removing it; raises when empty. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum payload; raises when empty.  Guard with
    {!is_empty}: the drain path allocates nothing (no option box). *)

val clear : 'a t -> unit
