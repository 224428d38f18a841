(** The 2-D mesh of processing elements.

    Models the interconnect topology of Fig. 1: each PE can read, in the
    next cycle, a value held in the register file of any of its four mesh
    neighbours (or its own). *)

type t = private { rows : int; cols : int }

val make : rows:int -> cols:int -> t
(** Raises [Invalid_argument] unless both dimensions are positive. *)

val square : int -> t
(** [square n] is an [n x n] grid. *)

val pe_count : t -> int

val in_bounds : t -> Coord.t -> bool

val neighbors : t -> Coord.t -> Coord.t list
(** In-bounds mesh neighbours, in N/E/S/W order. *)

val all_pes : t -> Coord.t list
(** Row-major enumeration. *)

val serpentine : t -> Coord.t array
(** All PEs along the boustrophedon path (row 0 left-to-right, row 1
    right-to-left, ...).  Consecutive entries are always mesh-adjacent. *)

val index : t -> Coord.t -> int
(** Row-major index, for array-backed per-PE state. *)

val serp_index : t -> Coord.t -> int
(** Position of a PE along the serpentine path ({!serpentine} inverse).
    Band-shaped pages treat PEs as path-adjacent when their serpentine
    positions are consecutive. *)

val pp : Format.formatter -> t -> unit
