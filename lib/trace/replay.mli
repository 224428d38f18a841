(** Pure reconstruction of runtime aggregates from an event stream.

    A trace is only trustworthy if it is {e complete}: this module folds
    an event list back into the same aggregate record the discrete-event
    simulator reports, so every traced run carries an independent
    witness of its own summary.  The contract with the emitter is exact:
    occupancy samples are emitted at precisely the simulator's
    busy-page-cycle accrual points and replay folds them in stream
    order, so the floating-point accumulations reproduce {e bit for
    bit} — [Os_sim.result_t] and {!aggregates} must agree on every
    field, not merely within a tolerance (the test-suite asserts
    equality on the whole Fig. 9 grid).

    On top of the aggregate witness, replay derives the timelines the
    paper's narrative is about: page utilization over time, service
    queue depth, and per-thread wait statistics (via
    {!Cgra_util.Stats}). *)

type aggregates = {
  makespan : float;
  finishes : (int * float) list;  (** sorted by thread id *)
  total_ops : float;
  ipc : float;
  busy_page_cycles : float;
  page_utilization : float;
  transformations : int;
  stalls : int;
}

val aggregates : Trace.event list -> (aggregates, string) result
(** [Error] when the stream lacks a [Run_begin] header or ends with
    threads unaccounted for. *)

val wait_intervals : Trace.event list -> (int * float) list
(** One entry per served stall: (thread, cycles from queueing to
    grant), in service order. *)

type wait_stats = { n : int; mean : float; p95 : float; max : float }

val wait_statistics : Trace.event list -> wait_stats
(** Summary over {!wait_intervals} ({!Cgra_util.Stats}); zeros when no
    thread ever waited. *)
