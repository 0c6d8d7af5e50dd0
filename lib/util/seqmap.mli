(** A map from sequentially issued non-negative int keys — tickets,
    tokens — each of which lives a bounded time.

    Open addressing by [key land mask] over two flat arrays, so adding,
    finding and removing allocate nothing: where a [Hashtbl] conses a
    bucket per binding, only growth allocates here.  Keys issued in
    increasing order map to consecutive slots, so they collide only with
    a key still live [capacity] issues earlier; the table then doubles
    until every live key has its own slot.  Capacity therefore follows
    the span of live keys, not their count: a key that is never removed
    keeps the table growing with the keys issued after it.  There is no
    iteration, so no order to preserve. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [capacity] is rounded up to a power of two.  [dummy] fills vacated
    slots so removed values are not kept live. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind a key (>= 0), replacing any binding it has.  Raises
    [Invalid_argument] on a negative key. *)

val find : 'a t -> int -> 'a
(** Raises [Not_found] when the key is unbound. *)

val mem : 'a t -> int -> bool
val remove : 'a t -> int -> unit
(** Unbinding an unbound key is a no-op. *)

val length : 'a t -> int
(** Live bindings. *)
