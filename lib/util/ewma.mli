(** Exponentially weighted moving average.

    FIFO+ switches track the average queueing delay of each sharing class
    with an EWMA (Section 6 of the paper measures "the average delay seen by
    packets in each priority class at that switch").  The admission
    controller's conservative load estimators are also EWMA-based. *)

type t = private { gain : float; mutable avg : float; mutable n : float }
(** Read-only view of the state: an all-float record, so a per-packet
    caller reads [avg] as an unboxed load where {!value} would box its
    result. *)

val create : ?init:float -> gain:float -> unit -> t
(** [create ~gain ()] makes an average updated as
    [avg <- avg + gain * (x - avg)].  [gain] must lie in (0, 1].  Until the
    first observation the average reads as [init] (default [0.]). *)

val update : t -> float -> unit
(** Fold one observation into the average.  The first observation replaces
    the initial value entirely, so the estimate is unbiased at startup. *)

val update_from : t -> float array -> int -> unit
(** [update_from t a i] is [update t a.(i)] for per-packet callers: a float
    argument to a function of another module is boxed, a [float array]
    slot is not. *)

val value : t -> float
val count : t -> int
(** Number of observations folded in so far. *)
