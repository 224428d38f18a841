(** Property-based fuzzing of the OS layer through its trace.

    Where {!Fuzz} shakes the compile → fold → execute pipeline, this
    module shakes the runtime above it: random workloads are run through
    {!Cgra_core.Os_sim} with a live trace collector, and the emitted
    event stream is held to the OS invariants that the aggregate
    [result_t] cannot express:

    - the service queue never holds a thread twice, and every stall
      event's reported depth matches a replayed queue;
    - pages are conserved at {e every} instant: allocations stay
      disjoint, in bounds, and never exceed the fabric at each timestamp
      boundary (events sharing a timestamp are one transaction — a
      repack rewrites several residents at once);
    - every occupancy sample matches the pages its thread actually holds
      at that moment;
    - grants, reshapes, and releases are consistent with the held ranges
      they claim to transform;
    - threads finish exactly once, holding nothing, queued nowhere, and
      the run ends with the fabric empty;
    - event times never go backwards.

    Each traced run is then folded back through
    {!Cgra_trace.Replay.aggregates} and compared {e exactly} — every
    field, including the float accumulations — against the simulator's
    own [result_t]; in particular [stalls] must equal the number of
    observed queue events.  Everything is reproducible from the seed. *)

val monitor : Cgra_trace.Trace.event list -> string list
(** Check the stream invariants above; [[]] means they all hold.
    Messages carry the offending event's sequence number. *)

val replay_check :
  Cgra_core.Os_sim.result_t -> Cgra_trace.Trace.event list -> string list
(** Fold the stream through {!Cgra_trace.Replay.aggregates} and compare
    every field — exactly, floats included — against the simulator's
    result; [[]] means the trace is a complete witness. *)

val suite : int * int -> Cgra_arch.Cgra.t * Cgra_core.Binary.t list
(** [suite (size, page_pes)]: the standard fabric and its seed-1 kernel
    suite, compiled once per fabric through {!Cgra_core.Binary}'s
    memoized cache (safe to share across domains).  The fabric must be
    a supported standard configuration; raises [Failure] when the suite
    fails to compile. *)

val harness : Cgra_util.Corpus.harness
(** The ["os"] harness for {!Cgra_util.Corpus.run}.  Each seed picks a
    contended fabric (4x4 with 4-PE or 2-PE pages), a thread count in
    [2..9], a CGRA-need level, one of the three allocator policies and
    a reconfiguration cost, then runs the simulator with a live trace in
    both Single and Multi modes and holds each stream to {!monitor} and
    {!replay_check}.
    Counters: [runs] (traced simulations, two per seed) and [events]
    (events monitored).  A case's digest covers both event streams. *)
