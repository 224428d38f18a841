(** Trace-derived analyzers: turn an {!Cgra_trace.Trace} event stream
    (live sink or re-parsed JSONL archive) into typed reports.

    Everything here is a pure fold over the event list, so a report is a
    deterministic function of the trace — byte-identical however many
    domains produced the run, because the trace itself is.  The analyses
    answer the paper's questions about a run:

    - {b occupancy heatmap} — busy page-cycles per (resident thread,
      page), from [Occupancy] samples attributed to the holder's current
      page range;
    - {b row-bus contention} — per-row-bus memory-access demand per
      cycle under the {e slab approximation}: a page range spanning
      fraction [f] of the fabric's pages is charged to the corresponding
      fraction of its row buses, with each resident's demand
      ([mem accesses per iteration / cycles per iteration]) spread
      uniformly over its rows.  Demand is piecewise constant between
      allocation changes, so time-weighted averages, peaks, and
      over-capacity fractions are exact under the approximation;
    - {b stall attribution} — each kernel segment's wall time split into
      queueing (request→grant), reshape (entry reconfiguration + every
      mid-flight PageMaster reshape), and execution;
    - {b reshape accounting} — shrink/expand/move counts, pages
      rewritten, cycles charged, allocator decisions and denials;
    - {b latency} — per-thread and overall segment-latency histograms
      with quantiles ({!Metrics.Hist}). *)

type run_info = {
  mode : string;
  total_pages : int;
  n_threads : int;
  policy : string;
  reconfig_cost : float;
  rows : int;  (** 0 when the trace predates geometry stamping *)
  mem_ports : int;
  makespan : float;
  n_events : int;
}

type resident_heat = {
  thread : int;
  page_busy : float array;  (** busy page-cycles per page, length [total_pages] *)
  busy_total : float;
}

type row_bus = {
  n_rows : int;
  capacity : float;  (** accesses per row bus per cycle ([mem_ports]) *)
  avg : float array;  (** time-weighted mean demand per row, accesses/cycle *)
  peak : float array;
  over_frac : float array;  (** fraction of makespan with demand > capacity *)
}

type stall_attrib = {
  thread : int;
  segments : int;
  queueing : float;  (** cycles between kernel request and grant *)
  reshape : float;  (** entry reconfiguration + mid-flight reshape cycles *)
  execution : float;  (** remainder of the segment *)
  total : float;  (** request → release *)
}

type reshape_acct = {
  shrinks : int;
  expands : int;
  moves : int;
  pages_rewritten : int;
  reshape_cycles : float;  (** cost charged by mid-flight reshapes *)
  entry_cycles : float;  (** cost charged by shrunk entry grants *)
  decisions : int;
  denials : int;
  considered : int;  (** alternatives weighed across all decisions *)
}

type report = {
  run : run_info;
  residents : resident_heat list;  (** sorted by thread id *)
  row_bus : row_bus option;  (** [None] when the trace carries no geometry *)
  stalls : stall_attrib list;  (** sorted by thread id *)
  reshapes : reshape_acct;
  latency : (int * Metrics.Hist.t) list;  (** per thread, sorted *)
  latency_all : Metrics.Hist.t;
  counters : (string * float) list;  (** last value per Counter name, sorted *)
}

val profile : Cgra_trace.Trace.event list -> (report, string) result
(** Fold a full event stream into a report.  Never raises: [Error] when
    the stream has no [Run_begin] (nothing to attribute against), when
    it claims more than 2^20 pages or row buses, or when any event's
    page range falls outside [\[0, total_pages)]. *)

val pe_heatmap : Cgra_mapper.Mapping.t -> float array array
(** Static per-PE utilization of one mapping: a [rows x cols] matrix
    where each entry is (occupied schedule slots) / II for that PE —
    operation firings and routing hops both occupy slots.  This is the
    paper's Fig. 4 measurement, derived from the mapping itself. *)

type bus_pressure = {
  kernel : string;
  ii : int;
  n_rows : int;
  capacity : int;  (** the row bus's port budget ([mem_ports_per_row]) *)
  demand : int array array;
      (** [n_rows x ii]: memory accesses issued on each row bus in each
          modulo slot — exact counts from the placements, not the
          profiler's slab approximation *)
  mem_ops : int;  (** placed loads + stores *)
  saturated : int;  (** (row, slot) pairs at [demand = capacity] *)
  headroom : int;  (** spare ports summed over unsaturated (row, slot) pairs *)
}

val bus_pressure : Cgra_mapper.Mapping.t -> bus_pressure
(** Static per-(row, slot) port-demand table of one mapping: what the
    bandwidth-aware scheduler's cost model sees, derived from the
    mapping itself.  Every mapping accepted by [Mapping.validate] has
    [demand <= capacity] everywhere; [saturated] counts the slots with
    no slack left — the slots the spill pass re-times memory ops away
    from.  For single-kernel bus questions this replaces the profiler's
    slab approximation ({!row_bus}) with exact counts. *)
