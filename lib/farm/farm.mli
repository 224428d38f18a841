(** Multi-tenant CGRA farm: a sharded fleet of fabrics behind a
    discrete-event request front end.

    This is the serving layer the ROADMAP's north star asks for, grown
    out of [examples/video_server.ml]: each shard is one fabric (its own
    compiled suite, {!Cgra_core.Allocator} and
    {!Cgra_core.Os_sim.Engine} as the online page scheduler), and the
    front end is an open-loop arrival process with per-tenant FIFO
    queues and admission control.

    {b The coordinator} is one sequential discrete-event loop.  Each
    step takes the earliest pending item — a shard's next internal
    event or the next arrival; shard events come first at equal times,
    and the lowest shard index first among shards — and either advances
    that shard's engine through every event at that instant or admits
    that arrival.  Grant and finish callbacks update the front end's
    accounting directly, and admission then dispatches queued requests
    at that exact time: a request starts the moment a shard frees
    capacity, as the paper's runtime reshapes kernels the moment a
    thread arrives or leaves.  Each shard's next-event time is cached
    and refreshed only after the shard is stepped or receives a submit.

    Determinism is the contract.  Everything runs on the virtual clock —
    no wall time anywhere in the simulated path — and all randomness
    flows from the seeded {!Cgra_util.Rng}, so one seed fixes the whole
    run: arrivals, admissions, dispatches, retirement log, quantiles.
    No {!params} field tunes speed alone; every one of them is part of
    the simulated system.  The [pool] only races suite compiles, which
    are bit-deterministic at any width, so results are byte-identical
    at any [-j].

    Admission bounds each tenant's queue at [queue_bound] (excess
    requests are rejected at arrival, never dropped later) and each
    shard's in-flight population at [max_resident]; dispatch picks the
    shard with the fewest in-flight requests, then the least-allocated
    fabric, then the lowest index.  The {!Cost_aware} dispatch policy
    additionally prices the reshape cycles a non-fitting request would
    inflict on residents against the shard's next wake-up and defers
    the grant when queueing is cheaper. *)

module T := Cgra_trace.Trace
module Hist := Cgra_prof.Metrics.Hist

type shard_spec = { size : int; page_pes : int }

type dispatch =
  | Least_loaded
      (** fewest in-flight, least-allocated, lowest index — always
          dispatch when some shard has capacity *)
  | Cost_aware
      (** same order, but defer a request whose missing pages would cost
          more reshape cycles (priced at [reconfig_cost] each) than
          waiting for the shard's next event; identical to
          [Least_loaded] when [reconfig_cost = 0] *)

type params = {
  fleet : shard_spec list;
  n_tenants : int;
  n_requests : int;
  offered_load : float;
      (** arrival rate as a multiple of the fleet's nominal capacity
          (mean full-allocation service rate of the request mix summed
          over shards): 1.0 offers exactly what the fleet can nominally
          serve, 2.0 saturates it *)
  queue_bound : int;  (** max queued-but-undispatched requests per tenant *)
  max_resident : int;  (** max in-flight requests per shard *)
  seed : int;
  policy : Cgra_core.Allocator.policy;
  reconfig_cost : float;
  dispatch : dispatch;
}

val default_params : params
(** The committed-benchmark configuration: a mixed fleet of 4x4, 6x6 and
    8x8 shards, all with 4-PE pages, 4 tenants,
    200 requests, load 1.0, bound 8, resident 8, seed 0, [Cost_halving],
    [Least_loaded] dispatch. *)

val big_params : params
(** [default_params] on the at-scale fleet, eight shards each of 4x4,
    6x6 and 8x8 (24 shards, three unique architectures to compile), with
    8 tenants and 10,000 requests — the [BENCH_farm_big.json] / [make
    farm-big] configuration. *)

val mix : string array
(** The request kernel mix (mpeg, yuv2rgb, sobel — the video-serving
    story of the paper's introduction).  Request sizes are uniform in
    40–120 iterations. *)

type terminal = Retired | Rejected

type request = {
  rid : int;
  tenant : int;
  kernel : string;
  iterations : int;
  arrival : float;
  mutable shard : int;  (** -1 until admitted *)
  mutable dispatched : float;  (** nan until admitted *)
  mutable resident_at : float;  (** nan until first page grant *)
  mutable retired_at : float;  (** nan until finished *)
  mutable terminal : terminal option;
}

type shard_report = {
  s_index : int;
  s_spec : shard_spec;
  s_pages : int;
  s_served : int;
  s_busy_cycles : float;
      (** front-end accounting: sum of (retire - dispatch) over the
          shard's requests — for single-kernel requests this equals the
          summed per-thread stall-attribution totals
          {!Cgra_prof.Analyze.profile} reconstructs from the shard's
          trace *)
  s_steps : int;
      (** coordinator steps that advanced this shard's engine — its
          share of the loop's work *)
  s_os : Cgra_core.Os_sim.result_t;
}

type report = {
  params : params;
  offered : int;
  retired : int;
  rejected : int;
  makespan : float;
  epochs : int;
      (** coordinator loop steps: shard advances plus admitted or
          rejected arrivals *)
  throughput : float;  (** retired requests per 1000 cycles *)
  latency : Hist.summary;  (** arrival -> retire, cycles *)
  queue_wait : Hist.summary;  (** arrival -> dispatch, cycles *)
  log : (int * int * int * float) list;
      (** (rid, tenant, shard, time), in retirement order *)
  requests : request list;  (** arrival order, final states *)
  shard_reports : shard_report list;
  farm_events : T.event list;  (** the [farm_*] stream (empty untraced) *)
  shard_events : T.event list list;
      (** per-shard OS streams, fleet order: each is a complete
          {!Cgra_verify.Os_fuzz.monitor}-able / replayable run *)
}

val run :
  ?pool:Cgra_util.Pool.t ->
  ?traced:bool ->
  params ->
  (report, string) result
(** Simulate the farm.  The [pool] parallelizes suite compilation, which
    is bit-deterministic at any width; the event loop itself is
    sequential.  [traced] (default false) collects the front end's
    [farm_*] stream and one OS stream per shard; tracing never changes
    the simulation.  Errors are validation failures (including a
    non-finite [offered_load] or [reconfig_cost]), compile failures, or
    a run whose virtual time could reach 2^53 cycles, where a float no
    longer resolves one cycle (a load so low that arrivals are that far
    apart). *)

val dispatch_name : dispatch -> string
(** ["least-loaded"] / ["cost-aware"] — the rendering and CLI spelling. *)

val render : ?log:bool -> report -> string
(** Deterministic text report (fixed-precision floats); [log] appends
    the retirement log — the byte-compare surface of the @smoke rule. *)

val render_stats : report -> string
(** Front-end observability ([cgra_tool farm --stats]): the loop's step
    count, per-shard steps, busy fractions and served counts, and the
    steal-free load imbalance (max/mean busy cycles — dispatch is final
    and work never migrates, so the ratio is the true imbalance). *)
