(** Memory environment for kernel execution: named integer arrays standing
    in for the CGRA's local data memory.

    Out-of-range indices wrap (Euclidean modulo), keeping randomly
    generated index streams total and deterministic. *)

type t

val create : (string * int array) list -> t
(** Arrays are used as given (not copied).  Duplicate names are an
    error. *)

val copy : t -> t
(** Deep copy; the reference interpreter and the simulator each run on
    their own copy and the results are compared. *)

val load : t -> string -> int -> int
(** Raises [Not_found] for unknown arrays. *)

val store : t -> string -> int -> int -> unit

val get : t -> string -> int array

val names : t -> string list
(** Sorted. *)

val equal : t -> t -> bool

val diff : t -> t -> (string * int * int * int) list
(** [(array, index, v_left, v_right)] for every differing cell — the
    simulator's failure report. *)
