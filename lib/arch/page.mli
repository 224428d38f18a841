(** Conceptual division of the CGRA into pages (Section VI-A of the paper).

    Pages are symmetrically equivalent groups of PEs arranged in a ring
    order such that consecutive pages are physically adjacent — the
    serpentine order over page tiles.  Two shapes are supported:

    - {b Rect}: the grid is tiled by [tile_rows x tile_cols] rectangles
      (the paper's 2x2 and 4x1 examples, Fig. 4); requires the grid
      dimensions to be divisible by the tile dimensions.
    - {b Band}: pages are contiguous runs of a given size along the PE
      serpentine.  This covers page sizes that do not tile the grid (the
      paper evaluates 8-PE pages on a 6x6 CGRA, and 36 is not divisible by
      8); remainder PEs are left unused.

    Paging requires no hardware support; this module is pure geometry used
    by the constrained mapper and the PageMaster transformation. *)

type shape =
  | Rect of { tile_rows : int; tile_cols : int }
  | Band of { size : int }

type t = private { grid : Grid.t; shape : shape }

val make : Grid.t -> shape -> t
(** Validates the shape against the grid: positive dimensions, divisibility
    for [Rect], [size <= pe_count] and at least one full page for [Band].
    Raises [Invalid_argument] otherwise. *)

val rect : Grid.t -> tile_rows:int -> tile_cols:int -> t

val band : Grid.t -> size:int -> t

val for_size : Grid.t -> int -> t option
(** The page geometry used throughout the experiments for a given page
    size: 2 -> 1x2 tiles, 4 -> 2x2 tiles, 8 -> 2x4 tiles when they divide
    the grid, falling back to [Band] when they do not (6x6 with 8-PE
    pages).  [None] when fewer than four pages would fit (no multithreading
    potential, matching the paper's omission of 8-PE pages on 4x4). *)

val n_pages : t -> int

val page_size : t -> int
(** PEs per page. *)

val used_pe_count : t -> int
(** [n_pages * page_size]; less than the grid's PE count only for [Band]
    shapes with a remainder. *)

val page_of_pe : t -> Coord.t -> int option
(** Page index of a PE; [None] for unused remainder PEs. *)

val pes_of_page : t -> int -> Coord.t list
(** The PEs of a page.  For [Rect], row-major within the tile; for [Band],
    along the serpentine. *)

val is_rect : t -> bool

val is_square_tile : t -> bool
(** True for [Rect] shapes with square tiles (full D4 mirroring
    available). *)

val local_of : t -> int -> Coord.t -> Coord.t option
(** Tile-local coordinate of a global PE within the given page ([Rect]
    only; [None] if the PE is not in the page or the shape is [Band]). *)

val global_of : t -> int -> Coord.t -> Coord.t option
(** Inverse of {!local_of}. *)

val vdims : t -> int * int
(** Virtual tile dimensions: the real tile for [Rect], a [1 x size] path
    for [Band].  The PageMaster mirroring machinery works uniformly on
    virtual tiles: a band page's only symmetries are identity and path
    reversal, i.e. the flips of a [1 x size] tile. *)

val vlocal : t -> int -> Coord.t -> Coord.t option
(** Virtual-tile-local coordinate of a global PE within the given page:
    tile-local for [Rect], [(0, position-within-segment)] for [Band]. *)

val vglobal : t -> int -> Coord.t -> Coord.t option
(** Inverse of {!vlocal}. *)

(** {1 Int tables}

    The PageMaster fold relocates every operation of a kernel at each
    thread launch.  These tables turn each relocation into array
    lookups; PEs are named by {!Grid.index} and a PE's place in its
    page by its {e local index}, [row * vcols + col] over {!vdims}. *)

type tables = private {
  page_size : int;  (** {!page_size} *)
  page_of : int array;
      (** by PE index: its page, or [-1] for an unused remainder PE
          ({!page_of_pe}) *)
  local_of : int array;
      (** by PE index: its local index within its page ({!vlocal}), or
          [-1] for a remainder PE *)
  pe_at : int array;
      (** [pe_at.(page * page_size + local)]: the PE index at that local
          index of that page ({!vglobal}) *)
  coord : Coord.t array;  (** by PE index: its coordinate *)
  orients : Orient.t array;
      (** the candidate symmetries of a page, in {!Orient.all} order, so
          [orients.(0)] is the identity *)
  act : int array array;
      (** [act.(o).(local)]: the local index [orients.(o)] takes [local]
          to ({!Orient.apply} on the virtual tile) *)
}

val same : t -> t -> bool
(** Same layout: equal grid dimensions and equal shape. *)

val tables : t -> tables
(** The tables of this layout (grid and shape).  Built on a domain's
    first use of the layout and kept by that domain for every [t] that
    is {!same}. *)

val move : tables -> orient:int -> dst_page:int -> int -> int
(** [move tb ~orient ~dst_page i] is where PE index [i] (a PE of some
    page) lands when its page is mirrored by [tb.orients.(orient)] and
    moved onto [dst_page]'s tile.  Raises [Invalid_argument] for a
    remainder PE or a page out of range. *)

val dir_between : t -> int -> Coord.dir option
(** Direction from page [n]'s tile to page [n+1]'s tile in the serpentine
    ring order ([Rect] only; [None] for [Band] or the last page). *)

val boundary_pairs : t -> int -> (Coord.t * Coord.t) list
(** All mesh-adjacent PE pairs [(a, b)] with [a] in page [n] and [b] in
    page [n+1].  These are the only interconnect crossings the paging
    dataflow constraint allows. *)

val pp : Format.formatter -> t -> unit
