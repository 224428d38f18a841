(** Operand routing through intermediate PEs.

    When a consumer is not within register-file reach of its producer
    (same PE or a mesh neighbour), the value is relayed through routing
    PEs: each hop occupies one schedule slot exclusively and
    re-materializes the value in its own register file, where it can wait
    any number of cycles for the next hop (the paper's routing PEs
    "can only transfer input data to [their] outputs").

    The search is a best-first (fewest hops, then earliest arrival)
    expansion over PEs, assigning each hop the earliest free modulo slot
    after its predecessor.  PEs are row-major indices ({!Cgra_arch.Grid.index})
    throughout; only the returned chain is in coordinates. *)

type fabric = private {
  coords : Cgra_arch.Coord.t array;  (** PE index -> coordinate *)
  row : int array;
  col : int array;
  serp : int array;  (** PE index -> serpentine position *)
  page : int array;  (** PE index -> page, or [-1] when in no page *)
  nbr_start : int array;
  nbr : int array;
      (** The expansion list of PE [i] is [nbr.(nbr_start.(i))] up to
          [nbr.(nbr_start.(i + 1) - 1)]: its mesh neighbours in N/E/S/W
          order, then [i] itself.  This order fixes the push order. *)
  band : bool;  (** band-shaped pages: same-page reads are path-consecutive *)
  cols : int;
}
(** Per-PE tables of one architecture, read-only once built. *)

val fabric : Cgra_arch.Cgra.t -> fabric

(** The reach relation a search runs under. *)
type reach =
  | Mesh
      (** Unconstrained: any PE may relay, and a hop reads its own
          register file or a mesh neighbour's. *)
  | Pages of { first : int; last : int }
      (** Paged, for an edge from page [first] to page [last]: relays stay
          on those pages, and each step stays on its page or crosses one
          boundary forward.  On band pages a step is path-consecutive
          (adjacent serpentine positions).  A PE in no page reads
          nothing. *)

type strand = {
  mem_use : int array;  (** row * ii + slot -> memory ops issued *)
  row_occ : int array;  (** row * ii + slot -> PEs taken *)
  budget : int;  (** memory ports per row *)
}
(** The row-bus state that prices a hop, see {!create}. *)

type t
(** Search scratch for one scheduling attempt: the best (hops, cost,
    time) per PE and an array binary heap, reused by every {!find}.
    Not safe to share between domains. *)

val create :
  fabric ->
  ii:int ->
  occupied:Bytes.t ->
  overlay:int array ->
  ?strand:strand ->
  unit ->
  t
(** [create fabric ~ii ~occupied ~overlay ?strand ()] searches the
    attempt's own tables, read live on every {!find}: slot
    [(pe, time mod ii)] is taken when [occupied] holds a non-zero byte at
    [pe * ii + time mod ii], or when [overlay] holds the [gen] passed to
    {!find} there.  With [strand], each hop slot whose row still has
    unspent memory ports but runs short of free PEs to issue them from
    costs 1; the bandwidth-aware scheduler uses it to steer routing
    chains off port-saturated (row, slot) pairs. *)

val strand_price : t -> int -> int -> int
(** [strand_price t pe time] is the price of taking slot [(pe, time)]: 1 when
    its row still has unspent memory ports at that slot but no more free
    PEs than ports left to issue them from, else 0.  Always 0 without
    [strand]. *)

val find :
  t ->
  gen:int ->
  reach ->
  src:int ->
  src_time:int ->
  dst:int ->
  deadline:int ->
  max_hops:int ->
  Mapping.placement list option
(** [find t ~gen reach ~src ~src_time ~dst ~deadline ~max_hops] returns a
    hop chain (empty when [dst] can read [src] directly) whose value PE
    [dst] can read at time [deadline], from a producer at PE [src] that
    finishes at [src_time].  Times are non-negative.  The search
    minimizes (hops, total strand cost, arrival time) lexicographically
    and breaks the remaining ties by push order, so without [strand] it
    is the fewest-hops, earliest-arrival search.  [None] when no chain of
    at most [max_hops] hops exists. *)
