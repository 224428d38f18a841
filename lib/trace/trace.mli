(** Structured runtime tracing for the multithreaded-CGRA runtime.

    The paper's whole argument is dynamic — threads arrive, the
    PageMaster shrinks and expands allocations, utilization climbs — yet
    aggregate results ({!Cgra_core.Os_sim.result_t} and friends) only
    show the end state.  This module gives every runtime layer a common,
    typed event vocabulary:

    - {b lifecycle}: simulation begin/end, thread arrival/finish;
    - {b kernel service}: request, grant, stall (queued), release;
    - {b PageMaster}: shrink/expand/move reshapes with before/after page
      ranges, pages rewritten, and the cycles charged — the measurements
      the cost-aware-allocation work needs;
    - {b occupancy}: per-interval page-occupancy samples, emitted exactly
      when the simulator accrues busy page-cycles, so a trace can
      reproduce the aggregate {e bit for bit} (see {!Replay});
    - {b allocator}: every placement decision with the alternatives that
      were considered;
    - {b generic}: counter events (a named value), timing spans, and
      marks for instrumenting non-timed layers (scheduler, checker,
      executor).  A counter is an event like any other; there is no
      side table of totals.

    A trace handle is either {!null} — every emission is a no-op, so
    instrumented code costs one branch when tracing is off — or a
    collector created by {!make} that records events in emission order.
    Emission order {e is} the contract: {!Replay} folds events in stream
    order to reproduce floating-point accumulations exactly. *)

type page_range = { base : int; len : int }
(** A contiguous run of pages in serpentine ring order, as handed out by
    {!Cgra_core.Allocator}. *)

type reshape_kind = Shrink | Expand | Move

type payload =
  | Run_begin of {
      mode : string;  (** ["single"] or ["multi"] *)
      total_pages : int;
      n_threads : int;
      policy : string;
      reconfig_cost : float;
      rows : int;  (** row buses on the fabric (0 when unknown) *)
      mem_ports : int;  (** memory ports per row bus per cycle *)
    }
  | Run_end of { makespan : float }
  | Thread_arrival of { thread : int; segments : int }
  | Thread_finish of { thread : int }
  | Kernel_request of {
      thread : int;
      kernel : string;
      iterations : int;
      ops : int;  (** total micro-ops this segment adds ([ops/iter * iterations]) *)
      mem : int;  (** memory accesses per iteration (static load/store count) *)
      desired : int;  (** pages the paged binary wants *)
    }
  | Kernel_grant of {
      thread : int;
      kernel : string;
      range : page_range;
      shrunk : bool;  (** granted below desire (counts as a transformation) *)
      cost : float;  (** reconfiguration cycles charged before progress *)
      rate : float;  (** cycles per kernel iteration at this allocation *)
    }
  | Kernel_stall of { thread : int; kernel : string; queue_depth : int }
  | Kernel_release of { thread : int; kernel : string; range : page_range }
  | Reshape of {
      thread : int;
      kind : reshape_kind;
      before : page_range;
      after : page_range;
      pages_rewritten : int;  (** pages that receive re-folded contexts *)
      cost : float;  (** cycles of stalled progress charged *)
      rate : float;  (** cycles per kernel iteration after the reshape *)
    }
  | Occupancy of { thread : int; pages : int; elapsed : float }
      (** the thread held [pages] pages for the [elapsed] cycles ending at
          the event time; emitted at every busy-page-cycle accrual *)
  | Alloc_decision of {
      client : int;
      desired : int;
      granted : page_range option;
      considered : (string * page_range) list;
          (** the alternatives weighed: free segments, victims to halve, … *)
    }
  | Farm_begin of {
      shards : int;
      tenants : int;
      queue_bound : int;  (** max queued-but-undispatched requests per tenant *)
      max_resident : int;  (** max in-flight requests per shard *)
      requests : int;  (** offered requests in this run *)
    }
  | Farm_request of { req : int; tenant : int; kernel : string; iterations : int }
      (** a request arrives at the front end (queued) *)
  | Farm_reject of { req : int; tenant : int; queue_depth : int }
      (** admission control bounced the request (tenant queue full) *)
  | Farm_admit of { req : int; tenant : int; shard : int }
      (** dispatched from the tenant queue onto a shard's {!Os_sim} engine *)
  | Farm_resident of { req : int; shard : int }
      (** the shard granted fabric pages — the request is executing *)
  | Farm_retire of { req : int; tenant : int; shard : int; latency : float }
      (** finished; [latency] is arrival→retire in cycles *)
  | Farm_end of { makespan : float; retired : int; rejected : int }
  | Counter of { name : string; value : float }
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Mark of { name : string; detail : string }

type event = { seq : int; time : float; payload : payload }
(** [seq] is the emission index (dense from 0); [time] is simulation
    time in cycles (0 for untimed layers). *)

type t

val null : t
(** The disabled sink: {!enabled} is [false], every emission is a no-op,
    {!events} is empty.  Instrumented code must behave identically under
    [null] and under a collector. *)

val make : unit -> t
(** A fresh collector with clock 0 and no events. *)

val enabled : t -> bool
(** Guard for any work beyond constructing the payload itself. *)

val set_clock : t -> float -> unit
(** Set the current simulation time used by {!emit}.  Layers that know
    time pass it explicitly via {!emit_at}; layers that do not (the
    allocator) inherit the driver's clock. *)

val clock : t -> float

val emit : t -> payload -> unit
(** Record at the current clock. *)

val emit_at : t -> time:float -> payload -> unit
(** Record at an explicit time (also advances the clock to [time]). *)

val events : t -> event list
(** All events in emission order. *)

val n_events : t -> int

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Emit [Span_begin]/[Span_end] around the call (the end marker is
    emitted even on exceptions). *)

val kind_name : payload -> string
(** Stable snake_case tag, e.g. ["kernel_grant"] — the ["kind"] field of
    the JSONL export and the ["cat"] of the Chrome export. *)
