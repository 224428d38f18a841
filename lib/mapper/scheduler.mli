(** Iterative modulo scheduling of a kernel onto the CGRA — the compiler
    of Section II, in two flavours:

    - {b Unconstrained}: the EMS-style baseline.  Operations may use any
      PE; operands travel via neighbour register-file reads or routing-PE
      chains.  This produces the paper's baseline [II_b].
    - {b Paged}: adds the compile-time constraints of Section VI-B — the
      ring-topology dataflow constraint between pages and the
      register-usage rule — and packs operations into as few pages as
      possible (unused pages are what multithreading harvests).  This
      produces the constrained [II_c] compared in Fig. 8.

    The engine is a priority-ordered list scheduler over the modulo
    resource table: nodes are placed in condensation-topological order
    (recurrence circuits first among their dependents), each into the
    cheapest feasible (PE, time) of its modulo window, with bounded-hop
    routing.  Failed attempts restart with a perturbed placement order;
    exhausted attempts escalate the II.  Every returned mapping has been
    re-checked by [Mapping.validate]. *)

type kind = Unconstrained | Paged

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
(** [map kind arch g] schedules [g] with 64 restart attempts per II.
    Defaults: [seed 0], [max_ii] = MII + 40.  [Error] only when every II up
    to [max_ii] fails — which the test-suite treats as a bug for the
    bundled kernels.

    [bus_aware] (default [true]) makes the row bus a first-class
    allocation: each II races a bandwidth-aware attempt family — bus
    pressure priced into the candidate cost against per-(row, slot) port
    budgets, routing hops steered off port-saturated slots, and a
    bounded spill pass that re-times or re-rows the worst memory ops
    when an attempt gets stuck — ahead of the legacy family, which is
    replayed byte-identically after it.  The achieved II is therefore
    monotonically no worse than with [bus_aware:false] (which reproduces
    the pre-bandwidth scheduler exactly), at the price of up to twice
    the attempts on IIs that fail entirely.

    [pool] races the (II, attempt) ladder speculatively across the
    domain pool (see {!Cgra_util.Pool.race_poll}): the winner is always the
    {e lowest} [(ii, attempt)] pair that succeeds, and a success at II
    [k] abandons in-flight work at II [> k].  The returned mapping — and
    the [Error] text on failure — is bit-identical to the sequential
    result at any pool width.  Per-attempt debug logging stays coherent:
    raced attempts buffer their diagnostics, which are re-emitted in
    ladder order up to the winner.

    [trace] receives a ["sched.race"] span around the search plus
    counters (candidates / launched / cancelled / polish) and a winner
    mark. *)

val mii : kind -> Cgra_arch.Cgra.t -> Cgra_dfg.Graph.t -> int
(** The lower bound the search starts from ([Analysis.mii] with the
    fabric's PE and memory-port resources). *)

val log_src : Logs.Src.t
(** Debug logging source ("cgra.mapper"): per-attempt failure reasons. *)
