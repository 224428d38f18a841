(** Compiled kernel "binaries": what the OS ships to the CGRA.

    Each kernel is compiled twice for a given fabric — with the original
    (unconstrained) compiler and with the paging constraints — exactly as
    in the paper's experimental setup.  The single-threaded system runs
    the unconstrained binary; the multithreaded system runs the paged one
    and shrinks it with the PageMaster transformation as needed. *)

type t = {
  name : string;
  graph : Cgra_dfg.Graph.t;
  base : Cgra_mapper.Mapping.t;  (** unconstrained mapping, [II_b] *)
  paged : Cgra_mapper.Mapping.t;  (** paging-constrained mapping, [II_c] *)
}

val ii_base : t -> int

val ii_paged : t -> int

val pages_used : t -> int
(** Pages the paged mapping occupies — what the thread gets when the CGRA
    is otherwise idle. *)

val iteration_cycles : t -> pages:int -> int
(** Cycles per kernel iteration when the thread holds [pages] pages:
    [ii_paged * ceil (pages_used / pages)], clamped at [ii_paged] when
    the allocation covers the whole schedule ([Transform.ii_q]). *)

val compile :
  ?seed:int ->
  ?pool:Cgra_util.Pool.t ->
  ?trace:Cgra_trace.Trace.t ->
  Cgra_arch.Cgra.t ->
  Cgra_kernels.Kernels.t ->
  (t, string) result
(** Two-tier memoization: results are looked up in the in-process memo
    (keyed on architecture fingerprint x kernel name x seed), then in
    the installed on-disk store tier if any ({!set_store}, normally
    wired by [Cgra_store.install]), and only then compiled — so a warm
    store makes thread launch a disk read instead of a scheduler run.
    Compilation is deterministic per key — including at any [pool]
    width, since the raced scheduler is bit-identical to the sequential
    one — so cached and fresh results are interchangeable and the pool
    width is not part of the key; both tiers are safe to share across
    domains.  With [pool], both scheduler runs race their (II, attempt)
    ladders across its domains ({!Cgra_mapper.Scheduler.map}).  With
    [trace], a compile that reaches the scheduler passes it to both
    scheduler runs, which emit their ["sched.race"] spans and counters;
    a memo or disk hit emits nothing.  The tier outcomes are counted in
    {!stats}. *)

val compile_suite :
  ?seed:int ->
  ?pool:Cgra_util.Pool.t ->
  ?trace:Cgra_trace.Trace.t ->
  Cgra_arch.Cgra.t ->
  (t list, string) result
(** Compile the full 11-kernel suite; fails if any kernel fails to map
    (treated as a bug by the test-suite), short-circuiting on the first
    failing kernel in suite order — later kernels are not compiled.
    With [pool], each kernel's scheduling ladder is raced across the
    pool's domains, one kernel at a time; the suite order — and on
    failure, {e which} error is reported (the first kernel's, in suite
    order) — is unchanged. *)

val fingerprint : Cgra_arch.Cgra.t -> string
(** The architecture component of the cache key: the canonical,
    golden-tested {!Cgra_arch.Cgra.fingerprint} — {e not} the pretty
    printer, whose output may drift cosmetically. *)

type store_tier = {
  tier_load : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t option;
  tier_save : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t -> unit;
}
(** A persistent second cache tier.  [tier_load] returns [None] for
    missing, corrupt, or version-mismatched artifacts (the cache then
    falls through to a compile); [tier_save] must be atomic and
    best-effort (a failed save must not fail the compile). *)

val set_store : store_tier option -> unit
(** Install (or remove) the disk tier consulted between the in-memory
    memo and the compiler.  [Cgra_store.install] is the usual caller. *)

type stats = { mem_hits : int; disk_hits : int; compiles : int; stores : int }

val stats : unit -> stats
(** Per-tier outcome counts since start-up or the last {!reset_stats}:
    [compiles] counts actual scheduler runs, so a fully warm start shows
    [compiles = 0]. *)

val reset_stats : unit -> unit
(** Zero the counters (the caches themselves are untouched). *)

val clear_cache : unit -> unit
(** Drop the in-memory memo (the disk tier, if any, is untouched) and
    the scheduler's shared unconstrained searches
    ({!Cgra_mapper.Scheduler.clear_shared}), so the next compile that
    misses the disk tier is cold: both its scheduler runs search. *)
