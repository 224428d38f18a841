(** Mutable set of ints by open addressing in one int array: a lookup
    hashes with one multiplication and allocates nothing, and an
    insertion allocates only when it doubles the table.  Any int,
    [min_int] and [max_int] included, may be a member.

    The simulator's engine keeps every submitted thread id in one, to
    refuse a duplicate id in whatever order ids arrive. *)

type t

val create : unit -> t
(** An empty set. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Adding a member again changes nothing. *)
