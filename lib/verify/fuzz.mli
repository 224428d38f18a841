(** Property-based differential fuzzing of the compile → fold → execute
    pipeline.

    Each seed drives one deterministic case through {!Cgra_util.Rng}:
    pick a fabric — square tiles on 4x4, 1x2 tiles on 4x4, or 2x4 tiles
    on 6x6 — generate a random synthetic kernel, map it with the
    paging-constrained scheduler, then

    - check the mapping with {!Verify.mapping} and run it against the
      sequential oracle ({!Cgra_sim.Check.against_oracle});
    - fold it to {e every} [target_pages] in [1 .. n_used] at {e every}
      feasible [base_page] (including every non-zero base), checking the
      [II_q = II_p * ceil (N/M)] law on each fold, re-verifying every
      PE-exact fold, and running it against the oracle;
    - on square-tile fabrics, relocate the mapping to a non-zero base
      page, re-mark it paged, verify it there, and fold it {e again} —
      the absolute-page-indexing regression class.

    Everything is reproducible from the seed list; the test suite pins a
    fixed corpus. *)

val harness : iterations:int -> Cgra_util.Corpus.harness
(** The ["pipeline"] harness for {!Cgra_util.Corpus.run}.  [iterations]
    (at least 1) is the oracle-comparison depth per simulation.
    Counters: [mapped] (cases the scheduler mapped; the rest are
    capacity misses, not failures), [folds] (fold results checked),
    [folds at base > 0], [refolds] (relocate-then-refold exercises) and
    [oracle runs] (differential simulations).  A case's digest covers
    the codec bytes of its mapping and of every fold, in the order they
    ran. *)
