(** The PageMaster transformation (Section VI of the paper): reschedule a
    kernel compiled for the whole CGRA onto fewer pages, at runtime, in
    low-order polynomial time.

    {!fold} is the engine the multithreading runtime uses.  Source pages
    are grouped in ring order, [s = ceil (N/M)] consecutive pages per
    destination tile; within a group, pages execute back-to-back in time
    (the "execute the pages in order of dependency" of Fig. 6), and the
    new initiation interval is [II_q = II_p * s] — which meets the
    paper's optimality bound (using [1/s] of the fabric costs exactly a
    factor [s]).  Every operation's intra-page position is preserved up
    to a mirroring chosen by {!Mirror.solve}; when an exact PE-level
    embedding exists (always for [M = 1] and for square tiles) the result
    re-validates under [Mapping.validate].

    The transformation visits each operation and routing hop exactly
    once: O(ops + hops + pages * steps) — the low-order-polynomial claim,
    substantiated by the [fold …] rows of [BENCH_micro.json].  Each
    visit is a few reads of the layout's {!Cgra_arch.Page.tables},
    built once per page layout and shared, so a fold allocates little
    beyond the new mapping itself. *)

type shrunk = {
  mapping : Cgra_mapper.Mapping.t;
      (** the rescheduled kernel, occupying pages [base_page ..
          base_page + m_eff - 1]; [paged] is false (it is a runtime
          schedule, not a compiler artifact) *)
  source : Cgra_mapper.Mapping.t;
  n_used : int;  (** pages the source actually occupied *)
  m_eff : int;  (** destination pages actually used, [min target n_used] *)
  s : int;  (** fold factor [ceil (n_used / m_eff)] *)
  base_page : int;
  orientations : Cgra_arch.Orient.t array;  (** per source page *)
  pe_exact : bool;
      (** whether an exact PE-level embedding was found; when false the
          mapping's PE coordinates are positional only (page-level
          semantics) and must not be fed to the cycle-accurate simulator *)
}

val ii_q : ii_p:int -> n_used:int -> target_pages:int -> int
(** The transformed initiation interval:
    [ii_p * ceil (n_used / min target_pages n_used)]. *)

val fold :
  ?base_page:int ->
  target_pages:int ->
  Cgra_mapper.Mapping.t ->
  (shrunk, string) result
(** [fold ~target_pages m] shrinks the paged mapping [m] to at most
    [target_pages] pages starting at [base_page] (default 0).  The
    source may occupy any contiguous run of pages, not necessarily
    starting at page 0 — the runtime re-folds mappings the allocator
    already relocated.  Errors when [m] is not a paged mapping, leaves a
    non-constant node unplaced, has an operation or routing hop outside
    every page (off the grid, or on a band fabric's remainder PEs), its
    used pages are not contiguous, [target_pages < 1], or the
    destination range exceeds the fabric.  Total: it never raises, so a
    launch can fold whatever the store decoded. *)
