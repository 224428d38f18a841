(** Differential fuzzing of co-residency checking: the runtime's own
    filter ([Cgra_sim.Coexec.check]) against the independent checker
    ({!Meld.check}), over randomized melded resident sets.

    Each seed drives one deterministic case through {!Cgra_util.Rng}:
    pick a fabric (4x4 with 2-PE pages, 6x6 or 8x8 with 4-PE pages),
    draw 1–4 random kernels from its suite ({!Os_fuzz.suite}), push
    them through a random allocator grant/release churn (any of the
    three policies, random release and re-request orders), fold each
    survivor into its granted range with the PageMaster transformation,
    and then

    - run [Coexec.check] (under a live trace) and {!Meld.check} on the
      same resident set and require accept/reject agreement — and, on
      accept, an identical report (exact float equality: both checkers
      fold the same per-resident terms in the same order);
    - cross-check the emitted [coexec.*] trace events against the
      outcome: the check span is present, an accepted set's counters
      reproduce the report exactly, and a rejected set emits one
      [coexec.violation] mark per error, in order;
    - inject mutants: a duplicated resident (both checkers must reject;
      {!Meld} must name {b Disjoint}), a resident claiming a shifted
      allocator grant ({!Meld} must name {b Page_range}), and a resident
      compiled for a different fabric (both must reject; {!Meld} must
      name {b Residents}).

    Everything is reproducible from the seed. *)

val harness : Cgra_util.Corpus.harness
(** The ["meld"] harness for {!Cgra_util.Corpus.run}.  Counters: [sets]
    (resident sets checked differentially, one per seed), [residents]
    (across those sets), [accepted] and [rejected] (sets both checkers
    accepted, with reports compared, or both rejected), and [mutants]
    (corrupted sets injected and rejected).  A case's digest covers the
    allocator's grants and the runtime check's event stream. *)
