(** Whole-array architecture description.

    Bundles the mesh, its page division, and the microarchitectural
    parameters the mapper and validator need: rotating register-file
    capacity per PE and the number of memory ports on each row's shared
    data bus (Fig. 1 shows one bus per row). *)

type t = private {
  grid : Grid.t;
  pages : Page.t;
  rf_capacity : int;  (** registers per PE usable for live temporaries *)
  mem_ports_per_row : int;  (** simultaneous loads/stores per row per cycle *)
}

val make : ?rf_capacity:int -> ?mem_ports_per_row:int -> Page.t -> t
(** Defaults: [rf_capacity] is [max 16 (3 * n_pages)] — the paper requires
    N rotating registers per PE to shrink an N-page schedule to one page,
    and folded lifetimes can stretch up to one extra II per page crossing,
    so 3N provisions the worst case; [mem_ports_per_row = 2]. *)

val max_size : int
(** [16]: the largest [size] {!standard} accepts.  The paper's largest
    fabric, and every experiment here, is 8x8; a 16x16 fabric already
    has four times its PEs. *)

val standard : size:int -> page_pes:int -> t option
(** [standard ~size ~page_pes] is the configuration used in the paper's
    experiments: a [size x size] grid with [page_pes]-PE pages.  [None]
    when [size] is outside [1..max_size], or when the page size leaves
    fewer than two pages (e.g. 8-PE pages on a 4x4 CGRA). *)

val n_pages : t -> int

val pe_count : t -> int

val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** Canonical field-by-field identity of the architecture, e.g.
    ["cgra-v1;grid=4,4;pages=rect:2,2;rf=16;memports=2"].  Unlike {!pp}
    (whose wording and line-wrapping are free to change), this string is
    a pinned, golden-tested contract: compile caches and the on-disk
    binary store derive their keys from it, so its shape may only change
    together with the leading version tag.  Each domain remembers the
    last 16 it built, found by comparing the fields they encode, so an
    equal arch built afresh costs a lookup. *)
