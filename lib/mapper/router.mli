(** Operand routing through intermediate PEs.

    When a consumer is not within register-file reach of its producer
    (same PE or a mesh neighbour), the value is relayed through routing
    PEs: each hop occupies one schedule slot exclusively and
    re-materializes the value in its own register file, where it can wait
    any number of cycles for the next hop (the paper's routing PEs
    "can only transfer input data to [their] outputs").

    Both compilers route over a page layout (Section VI-B): a hop reads
    its own register file or a mesh neighbour's on its page or the page
    before it.  The baseline routes over the one page that covers the
    grid ({!Scheduler.layout}), where every mesh read is allowed.

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
  out_start : int array;
  out : int array;
      (** The PEs that may read PE [i] are [out.(out_start.(i))] up to
          [out.(out_start.(i + 1) - 1)]: PE [i] itself and each mesh
          neighbour on its page or the next one (path-consecutive on
          band pages), listed in the order of its mesh neighbours
          (N/E/S/W), then [i] itself.  This order fixes the push order.
          A PE in no page reads nothing and is read by nothing. *)
  in_start : int array;
  in_ : int array;  (** laid out like [out]: the PEs that PE [i] may read *)
  band : bool;  (** band-shaped pages: same-page reads are path-consecutive *)
  cols : int;
}
(** Per-PE tables of one page layout, read-only once built. *)

val fabric : Cgra_arch.Page.t -> fabric
(** The tables of a page layout.  Each domain builds them once per
    layout ({!Cgra_arch.Page.same}) and returns the same value after
    that; it may be read from any domain. *)

type reach = { first : int; last : int }
(** The PEs a chain for an edge from page [first] to page [last] may
    relay through: those on pages [first] to [last]. *)

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

val restart : t -> fabric -> ?strand:strand -> unit -> unit
(** [restart t fabric ?strand ()] readies [t] for the next attempt at the
    same II over the same [occupied] and [overlay]: it searches [fabric]
    (of the same PE count) with [strand], and {!searches} and {!misses}
    count from 0 again.  Its per-PE tables and search stamps carry on, so
    nothing is cleared.  Raises [Invalid_argument] for a fabric of
    another PE count. *)

val slot : t -> int -> int
(** [slot t time] is [time mod ii] for [time >= 0], the slot every
    lookup of [t] takes.  For [0 <= time < 2^20] and [ii <= 4096] it is
    a multiply and a shift; any other time takes [mod]. *)

val searches : t -> int
(** The best-first searches {!find} has run on [t]: the calls that got
    past its prechecks. *)

val misses : t -> int
(** The searches counted by {!searches} that found no chain. *)

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
    finishes at [src_time], relaying only through the PEs of [reach].  Times are non-negative.  The search
    minimizes (hops, total strand cost, arrival time) lexicographically
    and breaks the remaining ties by push order, so without [strand] it
    is the fewest-hops, earliest-arrival search.  [None] when no chain of
    at most [max_hops] hops exists. *)

(** {2 Reachability tables}

    Two passes bound every chain {!find} can return, for all PEs at once.
    Each is a relaxation of {!find}: it reads [occupied] alone, so a slot
    the overlay takes still counts as free; it drops the hop bound; it
    drops the page range, which a chain obeys anyway (reads stay on a
    page or move one page forward, so a chain from page [first] to a
    reader on page [last] only relays through the pages in between); and
    it ignores the strand price, which orders chains but forbids none.
    So every chain {!find} returns, and every direct read, is a chain of
    the relaxation, and a table that rejects an edge proves that {!find}
    returns [None] for it, under any overlay, hop bound or price.
    Within the relaxation the tables are exact: a PE's entry is the
    earliest (latest) time of any chain of free slots.

    Both are label-setting passes over the PEs on [t]'s search scratch,
    along the fabric's [out] lists forward and its [in_] lists
    backward. *)

val earliest_reads : t -> src:int -> src_time:int -> int array -> unit
(** [earliest_reads t ~src ~src_time into] sets [into.(pe)] to the
    earliest time PE [pe] can read the value of a producer at PE [src]
    that finishes at [src_time], directly or through a chain of hops, or
    to [max_int] when no chain reaches it.  {!find} with that producer,
    consumer PE [pe] and a [deadline] below [into.(pe)] returns [None]. *)

val latest_departures : t -> dst:int -> deadline:int -> int array -> unit
(** [latest_departures t ~dst ~deadline into] sets [into.(pe)] to the
    latest time a producer at PE [pe] can finish and still reach a
    consumer at PE [dst] that reads at [deadline], or to [-1] when none
    at time 0 or later can.  {!find} with that consumer, producer PE
    [pe] and a [src_time] above [into.(pe)] returns [None]. *)
