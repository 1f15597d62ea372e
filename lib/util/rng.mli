(** Deterministic pseudo-random number generation.

    All stochastic code in this repository (Monte-Carlo fault injection,
    randomized test-vector generation) draws from this splitmix64
    generator so that every experiment is reproducible from a seed.  The
    generator is the standard splitmix64 finalizer, which has good
    statistical quality for simulation purposes and a trivially
    splittable state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n).  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
(** Fair coin flip. *)

val fill_lanes : t -> int array -> lanes:int -> unit
(** [fill_lanes t words ~lanes] overwrites [words] with packed coin
    flips: bit [l] of [words.(i)] is set, for [l < lanes], exactly when
    the [(l * Array.length words + i)]-th of [lanes * Array.length words]
    successive {!bool} calls would return [true]; higher bits are
    cleared.  [t] ends in the state those calls would leave, so the
    packed and one-at-a-time draws are interchangeable (vector-major,
    then word).  Allocates nothing.  Requires [0 <= lanes <= Sys.int_size]. *)
