(** Mapped and scheduled kernels, and the legality rules they obey.

    A mapping assigns every schedulable DFG node a PE and an absolute
    schedule time; the modulo schedule repeats with period [ii], so node
    [v] of loop iteration [i] executes at cycle [i*ii + time(v)].

    {2 Data-movement model}

    A value produced at PE [p], time [t] is written to [p]'s rotating
    register file and can be read at any time [>= t+1] by an operation on
    [p] itself or on a mesh neighbour of [p] (Fig. 1: a PE operates on the
    output of a neighbouring PE in the next cycle, and the RF of one PE is
    readable by its neighbours).  Longer distances are covered by chains
    of routing PEs, each of which occupies a schedule slot exclusively.
    An edge with iteration distance [d] is read by the consumer [d]
    iterations later, i.e. at producer-frame time [time(v) + d*ii].

    [Const] nodes are loop-invariant and live in the consumer's register
    file (preloaded by the configuration), so they are not placed and
    consume no slots.

    {2 Paging rules (claimed by [paged] mappings)}

    - data flows forward along the serpentine ring order of pages (a
      subset of the paper's ring topology, with no wrap edge): every
      producer-to-consumer step of every edge — including each routing
      hop — stays in its page or advances to the next page, and a
      page-advancing step happens between boundary-adjacent PEs (for band
      pages: serpentine-consecutive PEs).  An edge from page [n] to page
      [n+k] is therefore relayed by routing PEs in each intermediate
      page, which are themselves operations of those pages, so the
      page-level dependence structure the PageMaster transformation
      relies on is preserved;
    - intra-page data movement never leaves the page (routing hops stay
      inside), and for band-shaped pages "adjacent" additionally means
      consecutive along the serpentine path (so that reversing a page
      preserves legality);
    - the pages used form a contiguous run [b .. b+k-1] of the ring
      order.  The compiler mostly emits [b = 0], but not always: the
      bandwidth-aware spill of a spreading attempt can move every
      operation off page 0 (the spreading cost does not price the page
      index), and the page polish keeps such a winner when no packing
      attempt uses fewer pages.  Five Fig. 8 grid mappings at seeds 0
      and 1 start at page 1 or 2 this way.  The multithreading runtime
      may relocate a mapping to any base page. *)

type placement = { pe : Cgra_arch.Coord.t; time : int }

type route = { edge : Cgra_dfg.Graph.edge; hops : placement list }
(** Routing chain for one edge, ordered from producer to consumer. *)

type t = {
  arch : Cgra_arch.Cgra.t;
  graph : Cgra_dfg.Graph.t;
  ii : int;
  placements : placement option array;  (** indexed by node id; [None] for consts *)
  routes : route list;
  paged : bool;
}

val placement_exn : t -> int -> placement
(** Raises [Invalid_argument] for unplaced (const) nodes. *)

val pages_used : t -> int list
(** Sorted distinct pages hosting at least one op or routing hop. *)

val n_pages_used : t -> int

val schedule_length : t -> int
(** One plus the largest scheduled time — the length of one iteration's
    span (prologue depth is [ceil (length / ii)] stages). *)

val utilization : t -> float
(** Fraction of PE slots of one II window occupied by ops or routing
    hops, over the whole fabric — the U of Section IV. *)

val steps : t -> (placement * placement) list
(** Every producer-to-reader step of every edge: producer to first hop,
    hop to hop, and last value instance to consumer (const edges
    contribute nothing).  The PageMaster mirroring machinery constrains
    orientations so each step's PEs stay within register-file reach after
    the transformation. *)

val iter_steps : t -> (placement -> placement -> unit) -> unit
(** [iter_steps t f] calls [f a b] on every step of {!steps}, in the
    same order, without building the list. *)

type value_key =
  | Produced of int  (** a node's result, by node id *)
  | Relayed of Cgra_dfg.Graph.edge * int  (** a routing hop's copy *)

type transfer = {
  key : value_key;
  holder : placement;  (** where the value lives (producer or hop) *)
  reader_pe : Cgra_arch.Coord.t;
  read_time : int;
      (** when it is read, in the holder's iteration frame (loop-carried
          consumers add [distance * ii]) *)
}

val transfers : t -> transfer list
(** Every register-file read of the schedule — the input to register
    allocation ([Cgra_isa.Regalloc]) and the basis of the validator's
    register-pressure accounting. *)

val validate : ?check_mem:bool -> t -> (unit, string list) result
(** Checks every rule above plus: exclusive slot occupancy, memory-port
    limits per row and cycle, register-file capacity (rotating-file
    accounting: a value of lifetime [l] occupies [ceil (l / ii)]
    registers), route-chain well-formedness, and — when [paged] — the
    paging rules.  Returns all violations found.

    [check_mem:false] skips the memory-port check: PageMaster-transformed
    schedules concentrate the surviving pages onto fewer rows, raising
    row-bus pressure, and the paper explicitly assumes sufficient memory
    bandwidth at runtime (it lists balancing memory requirements as
    future work) — see DESIGN.md. *)

val pp : Format.formatter -> t -> unit
(** ASCII rendering: one grid per modulo slot, each PE cell showing the
    node mapped there. *)

val pp_stats : Format.formatter -> t -> unit
