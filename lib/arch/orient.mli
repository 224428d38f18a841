(** Page orientations: the symmetries applied to intra-page mappings when
    the PageMaster transformation relocates a page (the "mirroring" of
    Fig. 6 in the paper).

    A symmetry acts on tile-local coordinates.  For square tiles the full
    dihedral group D4 (8 elements) is available; for rectangular tiles only
    the four axis-aligned flips preserve the tile shape. *)

type t
(** A tile symmetry.  Internally transpose-then-flip, so every element of
    D4 is representable. *)

val identity : t

val flip_rows : t
(** Mirror across the horizontal centre axis (row [r] becomes
    [rows-1-r]) — the paper's "mirrored along the horizontal axis". *)

val flip_cols : t
(** Mirror across the vertical centre axis. *)

val equal : t -> t -> bool

val swaps_axes : t -> bool
(** True for the four elements involving a 90-degree component; these are
    only legal on square tiles. *)

val all : square:bool -> t list
(** The candidate symmetries: 8 when [square], else the 4 flips. *)

val apply : t -> tile_rows:int -> tile_cols:int -> Coord.t -> Coord.t
(** [apply o ~tile_rows ~tile_cols c] transforms the tile-local coordinate
    [c].  Raises [Invalid_argument] if [o] swaps axes on a non-square
    tile. *)

val compose : t -> t -> t
(** [compose f g] applies [g] first, then [f] (only meaningful on square
    tiles when either swaps axes). *)

val pp : Format.formatter -> t -> unit
