(** Intra-page mirroring for the PageMaster transformation (Fig. 6 of the
    paper: "the internal page mapping must be mirrored across the
    among-page dependency direction").

    When the fold transformation stacks source pages onto destination
    tiles, each page's internal mapping may be reflected (and, for square
    tiles, rotated) so that every inter-page data transfer still lands
    within register-file reach — on the same PE (pages stacked in time) or
    a mesh neighbour (pages on adjacent tiles).

    Intra-page steps are preserved by {e any} symmetry (isometries keep
    mesh adjacency; band pages are restricted to path-consecutive
    adjacency, which survives reversal), so only cross-page steps
    constrain orientations.  Consecutive pages form a path, so a small
    dynamic program over candidate symmetries solves the assignment
    exactly: if the DP fails, no orientation assignment exists (this
    happens for non-square tiles whose fold mixes horizontal and vertical
    page boundaries; square tiles always admit the needed rotation).

    Everything runs on the layout's {!Cgra_arch.Page.tables}, built once
    per page layout: a relocation is three array reads.  Each cross-page
    step's two endpoints are relocated once per candidate orientation of
    their page ([k <= 8]), and the DP then compares the images: at most
    [k^2] pair checks per page boundary, each over that boundary's steps,
    so a solve costs O(k * steps + k^2 * pages * steps) int operations.
    It allocates two flat int arrays per boundary (the [k] images of
    each endpoint of its steps) and the [pages * k] DP table, and no
    closure per pair check. *)

val solve :
  Cgra_arch.Page.tables ->
  src_base:int ->
  n_used:int ->
  s:int ->
  base:int ->
  cross_steps:(int * int) list array ->
  int array option
(** [solve tb ~src_base ~n_used ~s ~base ~cross_steps] assigns one
    symmetry per source page, where source page [src_base + n] (for
    [n] in [0 .. n_used-1]) is relocated to destination page
    [base + n/s] and [cross_steps.(n)] lists the producer/consumer PE
    pairs ({!Cgra_arch.Grid.index}) of steps crossing from page
    [src_base + n] to page [src_base + n + 1].  Each symmetry is given by
    its index in [tb.orients], the form {!Cgra_arch.Page.move} takes.
    Returns [None] when no assignment satisfies every step.  Among the
    solutions it returns the one the DP's candidate order
    ({!Cgra_arch.Orient.all}) picks first.  Raises [Invalid_argument]
    when a step's PE is not in its page or a destination page is outside
    the fabric. *)
