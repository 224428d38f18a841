(** Iterative modulo scheduling of a kernel onto the CGRA — the compiler
    of Section II.  One engine, under the compile-time constraints of
    Section VI-B (the ring-topology dataflow constraint between pages),
    runs on one of two page layouts ({!layout}):

    - {b Unconstrained}: the EMS-style baseline, on one page covering the
      grid.  There the paging rules allow every PE and every
      neighbour register-file read, so operations may use any PE and
      operands travel via neighbour reads or routing-PE chains.  This
      produces the paper's baseline [II_b].
    - {b Paged}: the arch's own pages, with the register-usage rule.
      The engine packs operations into as few pages as possible (unused
      pages are what multithreading harvests) and polishes the page
      footprint at the winning II; its bandwidth-aware attempts also
      search a second window period and spill memory operations.  This
      produces the constrained [II_c] compared in Fig. 8.

    The engine is a priority-ordered list scheduler over the modulo
    resource table: nodes are placed in condensation-topological order
    (recurrence circuits first among their dependents), each into the
    cheapest feasible (PE, time) of its modulo window, with bounded-hop
    routing.  Failed attempts restart with a perturbed placement order;
    exhausted attempts escalate the II.  Every returned mapping has been
    re-checked by [Mapping.validate].

    One [map] call computes the candidate PEs for each page prefix and
    the per-node ordering constraints once, and takes its per-PE tables
    from {!Router.fabric}, built once per page layout per domain; every
    attempt reads them without writing, so raced attempts share them
    across domains.  Each domain keeps one attempt scratch — the modulo
    reservation tables, the routing overlay, and one {!Router.t} that
    every routing search reuses — and hands it to its next attempt with
    the same PE count, rows and II, clearing the reservation tables and
    keeping the stamped tables as they are.  Attempts never nest on a
    domain, so no two attempts share a scratch.  A probe computes no
    division ({!Router.slot}) and allocates only the hop chains it
    routes.

    Placing a node probes (PE, time) candidates, and every probe routes
    each edge to an already placed neighbour.  Most probes cannot route,
    and an exhausted best-first search is the dearest way to learn it.
    So at the first probe of a placement whose search comes up empty, the
    attempt builds one reachability table per placed-neighbour edge
    ({!Router.earliest_reads} for an edge from a placed producer,
    {!Router.latest_departures} for one into a placed consumer) and folds
    them into a time window per PE; later probes outside their PE's
    window are rejected without routing.  The tables relax the router
    (no overlay, hop bound, page range or strand price) over the
    attempt's occupancy, which holds still until the placement commits,
    so a rejected probe is one the router would have refused: every
    mapping, [Error] text and race counter except [searches] is the same
    as when every candidate is routed. *)

type kind = Unconstrained | Paged

val layout : kind -> Cgra_arch.Cgra.t -> Cgra_arch.Page.t
(** The page layout a [kind] of search runs on: for [Paged], the arch's
    pages; for [Unconstrained], one rectangular page covering the grid,
    a function of the grid's rows and columns alone. *)

val map :
  ?seed:int ->
  ?max_ii:int ->
  ?bus_aware:bool ->
  ?pool:Cgra_util.Pool.t ->
  ?trace:Cgra_trace.Trace.t ->
  kind ->
  Cgra_arch.Cgra.t ->
  Cgra_dfg.Graph.t ->
  (Mapping.t, string) result
(** [map kind arch g] schedules [g], escalating the II from {!mii} until
    an attempt succeeds.  Defaults: [seed 0], [max_ii] = MII + 40.
    [Error] only when every II up to [max_ii] fails — which the
    test-suite treats as a bug for the bundled kernels.

    [bus_aware] (default [true]) makes the row bus a first-class
    allocation: each II runs 80 restart attempts, 16 of a
    bandwidth-aware family — bus pressure priced into the candidate cost
    against the per-(row, slot) port budget, routing hops steered off
    port-saturated slots, and a bounded spill pass that re-times or
    re-rows the worst memory ops when an attempt gets stuck — and then
    the 64 of the legacy family, replayed byte-identically.  The
    achieved II is therefore monotonically no worse than with
    [bus_aware:false] (64 legacy attempts per II, which reproduces the
    pre-bandwidth scheduler exactly), at the price of more attempts on
    IIs that fail entirely.

    The (II, attempt) ladder is walked one II level at a time: the
    level's attempts are raced across [pool] (see
    {!Cgra_util.Pool.race_poll}), and the walk moves up a level only
    when none of them succeeds.  Without [pool] the race runs on a
    one-domain pool, which tries the attempts in order on the calling
    domain and starts none past the winner.  The winner is always the
    {e lowest} [(ii, attempt)] pair that succeeds; no attempt above its
    level starts, and within its level the attempts above it are
    skipped or abandoned.  The page polish that follows races its eight
    attempts the same way, and the first single-page result ends it.
    The returned mapping — and the [Error] text on failure — is
    bit-identical at any pool width.

    [trace] receives a ["sched.race"] span around the search plus
    counters (candidates / launched / searches / cancelled / polish) and
    a winner mark; [searches] sums {!Router.searches} over every attempt
    the call ran, the polish attempts included.

    {b Shared unconstrained searches.}  The unconstrained search runs on
    [layout Unconstrained arch], the one-page layout of the grid, which
    depends only on the grid's rows and columns.  Besides those it reads
    [mem_ports_per_row], the graph, [seed], the effective [max_ii] and
    [bus_aware], and nothing else: the arch's pages and the register
    file reach it only through the [Mapping.validate] that closes each
    attempt.  So every page layout of one fabric searches the same
    baseline.  An unconstrained call whose
    search has those inputs equal (the graph structurally) to a stored
    search's takes the stored winner instead of searching, once
    [Mapping.validate] accepts it under the caller's arch; it returns it
    with that arch and its own placements array.  A search is stored
    when it succeeds and [Mapping.validate] refused no attempt below its
    winner (a larger register file could have accepted such an attempt);
    [Error] results and Paged calls are never stored.  The result is
    therefore the one a fresh search would give, at any pool width.  A
    shared call runs no search: its [trace] gets no ["sched.race"] span
    and no counter, only one ["sched.race.shared"] mark whose detail
    names the stored winner ([ii=… attempt=…]).  The store is safe to
    share across domains and holds one entry per distinct stored search
    until {!clear_shared} empties it. *)

val clear_shared : unit -> unit
(** Forget every stored unconstrained search, so the next unconstrained
    call of each input searches again.  {!Cgra_core.Binary.clear_cache}
    calls it. *)

val mii : kind -> Cgra_arch.Cgra.t -> Cgra_dfg.Graph.t -> int
(** The lower bound the search starts from: the larger of
    {!Cgra_dfg.Analysis.res_mii} over the PEs of the kind's {!layout}
    (every PE, or every paged PE) and the fabric's memory ports, and
    {!Cgra_dfg.Analysis.rec_mii_with} over the memory ordering
    constraints. *)
