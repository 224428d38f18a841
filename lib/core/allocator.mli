(** The OS-side CGRA page allocator (Section VII-B.1 of the paper).

    Pages are allocated as {e contiguous} ranges of the serpentine ring
    order — the PageMaster fold needs physically adjacent destination
    tiles.  The policy is the paper's:

    - a kernel that fits in the unused portion of the CGRA is placed
      there without disturbing anyone;
    - otherwise the thread holding the most pages is shrunk to half as
      many (its schedule re-folded by PageMaster), and the new thread
      takes the freed half;
    - when a thread leaves, its pages are merged with adjacent free space
      and running neighbours are expanded toward their desired sizes.

    The allocator keeps only its residents; free space is the gaps
    between them.  {!request}, {!release} and {!expand} update [t] in
    place.  It knows nothing about time; the discrete-event simulator
    drives it. *)

type range = { base : int; len : int }

type policy =
  | Halving  (** the paper's policy: shrink the largest holder to half *)
  | Repack_equal
      (** ablation: on contention, repack every resident to an equal
          contiguous share (more transformations, fairer splits) *)
  | Cost_halving
      (** reconfiguration-cost-aware halving: among residents whose freed
          half covers the request, shrink the one whose kept half (the
          pages the PageMaster must re-fold — the per-reshape cost the
          [Reshape]/[Alloc_decision] trace events record) is smallest;
          falls back to the largest victim when none is big enough, so a
          grant is never smaller than under [Halving] *)

val policy_name : policy -> string
(** ["halving"], ["repack"] or ["cost"]: the CLI's and the farm report's
    spelling.  (The [Os_sim] trace header keeps its own, older one.) *)

type t

val create :
  ?policy:policy -> ?trace:Cgra_trace.Trace.t -> total_pages:int -> unit -> t
(** Default policy: [Halving].  When [trace] is a live collector (default
    {!Cgra_trace.Trace.null}), every {!request} records an
    [Alloc_decision] event carrying the grant and the alternatives the
    policy weighed (free runs, halving victims, repack residents);
    the driver is expected to keep the collector's clock current.  Under
    the null collector no decision payload is built. *)

val request : t -> client:int -> desired:int -> range option
(** Allocate for a new client wanting [desired] pages (its paged
    mapping's footprint).  [None] when every running client is down to a
    single page — the new client must wait (the stall regime of the 4x4
    results).  The allocation may be smaller than [desired]. *)

val release : t -> client:int -> unit
(** Free the client's range; its pages join the free run around it.
    Raises [Invalid_argument] for unknown clients. *)

val expand : t -> (int * range) list
(** Grow running clients into free space and return every client whose
    range changed (with its new range), sorted by base.  Free runs are
    taken from the lowest base; of a run's two neighbours, the one below
    its desired size grows into it, the one with the larger deficit when
    both are (the lower one on ties), until no run borders a client below
    its desired size.  Call after {!release} and after waiters have been
    served. *)

val allocation : t -> client:int -> range option

val shrunk_clients : t -> (int * range) list
(** Clients whose current allocation is below their desired size. *)

val free_pages : t -> int
(** A running count; O(1). *)

val moves : t -> int
(** How many times a resident client's range has been rewritten: one per
    halved victim, per repack and per {!expand} step.  A grant carved
    from free space, a denial and a {!release} move no one.  A caller
    that keeps copies of its clients' ranges need re-read them only when
    this count has changed; O(1). *)

val clients : t -> (int * range) list
(** All allocations, sorted by base. *)

val pp : Format.formatter -> t -> unit
