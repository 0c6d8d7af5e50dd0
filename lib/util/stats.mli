(** Online summary statistics (Welford's algorithm).

    Used for per-flow and per-link delay accounting where only moments and
    extrema are needed; when exact percentiles are required, pair with
    {!Fvec} + {!Quantile}. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val add_from : t -> float array -> int -> unit
(** [add_from t a i] is [add t a.(i)], for per-packet callers: a float
    argument to a function of another module is boxed, a [float array]
    slot is not. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val total : t -> float
(** Sum of the observations. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator summarizing both inputs. *)

val reset : t -> unit
