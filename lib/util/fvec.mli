(** Growable float vector.

    Delay probes append one observation per packet; a ten-minute Table-2 run
    records a few hundred thousand floats per flow, so the representation is
    an amortized-doubling [float array] rather than a list. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> float -> unit
val push_from : t -> float array -> int -> unit
(** [push_from t a i] is [push t a.(i)], but the element moves array to
    array: a float passed as an argument to a function in another module
    is boxed, so per-packet callers keep the value in a [float array] slot
    (the way [Wheel.push_from] takes event times). *)

val get : t -> int -> float
(** Raises [Invalid_argument] when out of bounds. *)

val to_array : t -> float array
(** Fresh array of the live elements. *)

val sort : float array -> unit
(** Sort in place, ascending by [Float.compare]: exactly the permutation
    [Array.sort compare] produces, without boxing an element or calling C
    per comparison. *)

val sorted_copy : t -> float array
(** Ascending copy (via {!sort}); used by {!Quantile}. *)

val iter : (float -> unit) -> t -> unit
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val clear : t -> unit
