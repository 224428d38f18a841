(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    experiment, workload, and property test is reproducible from an explicit
    seed.  The generator is splitmix64, which has a 64-bit state, passes
    BigCrush, and is trivially splittable — good enough for workload
    generation and scheduling tie-breaks (we make no cryptographic claims). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues [t]'s stream;
    advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, statistically
    independent of subsequent draws from [t].  Used to give each simulated
    thread its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle: [shuffle_prefix t arr (Array.length arr)]. *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix t arr n] shuffles [arr.(0)] to [arr.(n - 1)] in
    place, with the draws {!shuffle} makes on an [n]-element array, and
    leaves the rest of [arr] as it is.  Raises [Invalid_argument] unless
    [0 <= n <= Array.length arr]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (> 0). *)
