(** Discrete-event simulation of the whole system: a multithreaded host
    processor plus the CGRA accelerator (Section VII-B).

    Threads alternate CPU phases (each thread has its own hardware
    context, in {e both} modes — the paper deliberately keeps processor
    multithreading out of the comparison) with CGRA kernel segments.

    - {b Single} mode models today's CGRAs: one kernel at a time,
      non-preemptive, FIFO queue, unconstrained binaries at [II_b].
    - {b Multi} mode models the paper's system: paged binaries at
      [II_c], space-multiplexed through {!Allocator}, shrunk and expanded
      by the PageMaster transformation (whose runtime the paper — and we —
      treat as negligible next to the code/data transfer it overlaps).

    A kernel holding [m] of its [N]-page schedule runs one iteration per
    [II_c * ceil (N/m)] cycles ({!Binary.iteration_cycles}). *)

type mode = Single | Multi

type params = {
  suite : Binary.t list;
  threads : Thread_model.t list;
  total_pages : int;
  mode : mode;
}

type result_t = {
  makespan : float;  (** cycles until the last thread finishes *)
  finishes : (int * float) list;  (** per-thread completion times *)
  total_ops : float;  (** kernel micro-ops executed on the CGRA *)
  ipc : float;  (** [total_ops / makespan] — the paper's throughput metric *)
  busy_page_cycles : float;  (** integral of allocated pages over time *)
  page_utilization : float;  (** busy page-cycles / (makespan * pages) *)
  transformations : int;  (** PageMaster invocations (shrinks + expands) *)
  stalls : int;  (** kernel requests that had to queue *)
}

module Engine : sig
  (** The incremental, event-driven core of the simulator.

      {!run} is a thin wrapper: create, submit every thread at time 0,
      drain, read the result — and is event-for-event identical to the
      historical closed-batch simulator.  An open system (the
      {!Cgra_farm} front end) instead interleaves {!submit} calls at
      arrival times with {!step}/{!run_until}, using the engine as the
      online scheduler of one fabric shard.

      Time must be driven monotonically: a {!submit} at time [at] is only
      valid when every queued internal event at a strictly earlier time
      has already been stepped (use {!next_event}/{!run_until}).  The
      contract is enforced: an out-of-order submit raises rather than
      silently simulating a run that never happened — the farm's
      event loop leans on this to catch ordering bugs. *)

  type t

  val create :
    ?policy:Allocator.policy ->
    ?reconfig_cost:float ->
    ?trace:Cgra_trace.Trace.t ->
    ?n_threads:int ->
    suite:Binary.t list ->
    total_pages:int ->
    mode:mode ->
    unit ->
    t
  (** [n_threads] (default 0) only stamps the [Run_begin] trace header —
      an open system does not know its population up front.  Raises
      [Invalid_argument] when [reconfig_cost] is negative or not finite. *)

  val submit : t -> at:float -> Thread_model.t -> unit
  (** Admit a thread at time [at]: emits its [Thread_arrival] and starts
      its first segment immediately (so a kernel-first thread requests
      pages at [at]).  Raises [Invalid_argument] on a NaN or infinite
      [at], a duplicate id or an out-of-order arrival — [at] earlier
      than an already stepped event, an earlier pending internal event,
      or a previous submit — before touching any state, so the engine
      stays usable; and on an unknown kernel. *)

  val next_event : t -> float
  (** Time of the earliest pending internal event, or [infinity] when
      idle (so it compares after every arrival; no option is allocated).
      May name a superseded (stale-generation) event; stepping it is a
      harmless no-op, so callers interleaving external arrivals can
      simply compare times and step. *)

  val step : t -> bool
  (** Process one pending event; [false] when the queue is empty. *)

  val run_until : t -> float -> unit
  (** Step every pending event with time [<=] the given bound. *)

  val drain : t -> unit
  (** Step until idle. *)

  val in_flight : t -> int
  (** Submitted threads that have not yet finished. *)

  val free_pages : t -> int
  (** Unallocated pages; O(1).  The farm's shard picker reads the used
      share, [total - free_pages], as its load signal. *)

  val set_on_finish : t -> (int -> float -> unit) -> unit
  (** Called as [f id time] whenever a thread finishes (at
      [Thread_finish] emission).  The callback must not re-enter the
      engine; record the notification and act after {!step} returns. *)

  val set_on_grant : t -> (int -> float -> unit) -> unit
  (** Called as [f id time] at every kernel grant (first grant = the
      thread became resident on the fabric).  Same re-entrancy rule as
      {!set_on_finish}. *)

  val result : t -> result_t
  (** Aggregate over every submitted thread, in submission order; also
      emits the closing [Run_end] event when tracing.  Raises
      [Invalid_argument] if any thread is unfinished (drain first). *)
end

val run :
  ?policy:Allocator.policy ->
  ?reconfig_cost:float ->
  ?trace:Cgra_trace.Trace.t ->
  params ->
  result_t
(** Raises [Invalid_argument] on unknown kernels, an empty thread list,
    or a negative or non-finite [reconfig_cost].

    [policy] (default [Halving]) selects the allocator's contention
    policy.  [reconfig_cost] (default 0) charges that many cycles of
    stalled progress to a kernel each time PageMaster reshapes it — the
    paper argues the transformation is negligible next to the overlapped
    code/data transfer; the ablation benches sweep this to find where the
    argument would break.

    [trace] (default {!Cgra_trace.Trace.null}: one branch per emission
    point, in the engine and in its allocator, and no event payload is
    built) records the full event timeline: thread arrivals and
    finishes, kernel request/grant/stall/release, PageMaster reshapes
    with before/after ranges and cycles charged, allocator decisions,
    and per-interval page-occupancy samples.  The stream is complete:
    {!Cgra_trace.Replay.aggregates} folds it back into a record equal to
    the returned {!result_t} field for field. *)

val improvement_percent : single:result_t -> multi:result_t -> float
(** Throughput improvement of Multi over Single:
    [(makespan_single / makespan_multi - 1) * 100] — Fig. 9's y-axis. *)
