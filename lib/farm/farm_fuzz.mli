(** Property-based fuzzing of the farm front end.

    Random tenant mixes through random arrival bursts, every run
    reproducible from its seed.  Three layers of checks per case:

    - the [farm_*] stream discipline ({!monitor}): every request is
      requested exactly once and reaches exactly one terminal state;
      admits pop the tenant's FIFO head; per-tenant queue depth never
      exceeds the bound; per-shard in-flight never exceeds
      [max_resident]; a retire's recorded latency equals its span; time
      never goes backwards;
    - report-level conservation ({!check_report}): retired + rejected =
      offered, no admitted request is ever dropped, per-tenant dispatch
      order follows arrival order, and — under least-loaded dispatch, or
      cost-aware at zero reconfig cost — every dispatch happens at the
      request's own arrival or at some request's retire time;
    - each shard's OS stream through {!Cgra_verify.Os_fuzz.monitor}
      (instant-level page conservation and disjoint grants) and
      {!Cgra_verify.Os_fuzz.replay_check} (the stream reproduces the
      shard engine's aggregate bit for bit). *)

val monitor :
  queue_bound:int -> max_resident:int -> Cgra_trace.Trace.event list ->
  string list
(** Check the farm-stream invariants above; [[]] means they all hold. *)

val check_report : Farm.report -> string list
(** Report-level conservation and exact-time dispatch invariants; [[]]
    means they all hold. *)

val check : Farm.report -> string list
(** Every check a traced run must pass: {!monitor} over the farm
    stream (with the run's own queue bound and residency limit),
    {!check_report}, and each shard's OS stream through
    {!Cgra_verify.Os_fuzz.monitor} and {!Cgra_verify.Os_fuzz.replay_check}
    (those failures prefixed with the shard index).  [[]] means they all
    hold. *)

val harness : Cgra_util.Corpus.harness
(** The ["farm"] harness for {!Cgra_util.Corpus.run}: each seed denotes
    a random fleet, tenant mix, load, queue bound, residency limit,
    policy and reconfiguration cost, run with tracing on and held to
    {!check}.  Counters: [requests] (offered) and [events] (farm and
    shard events checked).  A case's digest covers the farm stream and
    every shard stream, or the [Error] text of a run that failed. *)
