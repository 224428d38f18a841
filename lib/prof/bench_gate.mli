(** The repo's first enforced perf contract: compare freshly measured
    bench rows against the committed [BENCH_micro.json] /
    [BENCH_fig9.json] baselines, with per-row tolerances, and fail
    loudly on regressions.

    The comparator lives in the library (not the bench binary) so the
    test-suite can prove both directions: the committed baselines pass
    against themselves, and a row inflated beyond tolerance fails. *)

type row = {
  name : string;
  value : float;
  domains : int;  (** pool width this row ran at *)
  runs : int;  (** samples taken; the recorded value is the minimum *)
  spread : float;  (** (max-min)/min over the samples, percent *)
}

type doc = { bench : string; unit_ : string; rows : row list }

val parse : string -> (doc, string) result
(** Parse a BENCH_*.json document.  [runs]/[spread] default to 1/0 for
    rows written by older harnesses, [domains] to the document level. *)

val tolerance : string -> float
(** Allowed slowdown factor for the named row.  Warm-start rows measure
    microsecond-scale disk reads and jitter hardest (4.0x); wall-clock
    sweep and fold rows get the 2.0x default; {!sim_rate} rows gate the
    same 2.0x ratio in the upward direction
    ([current >= baseline / tolerance]).  A factor, not a margin.
    Meaningless (1.0) for {!higher_is_better} and {!deterministic}
    rows, which gate on a flat epsilon instead. *)

val deterministic : string -> bool
(** Rows named with the "farm" prefix are virtual-clock simulation
    outputs, reproducible down to float formatting — except the
    {!sim_rate} rows, which are wall measurements.  Deterministic rows
    gate on a flat 0.001 epsilon (covering the %.3f quantization of the
    written value) in whichever direction {!higher_is_better} says,
    never on a jitter factor. *)

val sim_rate : string -> bool
(** Farm rows containing "sim-rate" time the front-end coordinator in
    requests per wall-second: measurements, not simulation outputs, so
    they gate upward with the 2.0x jitter ratio rather than an
    epsilon. *)

val higher_is_better : string -> bool
(** Rows named with the "fig8" prefix are deterministic quality scores
    (geomean percent of baseline II, epsilon 0.05), and farm rows
    containing "req/" are throughputs (epsilon 0.001): the gate passes
    when [current >= baseline - epsilon] — any real drop fails, and
    jitter tolerances do not apply.  {!sim_rate} rows are also
    higher-is-better, but with the ratio tolerance above. *)

type outcome = {
  o_name : string;
  baseline : float;
  current : float option;  (** [None]: row missing from the fresh run *)
  tol : float;
  ok : bool;
}

val check : baseline:doc -> current:doc -> outcome list
(** One outcome per baseline row, in baseline order.  Missing rows and
    beyond-tolerance regressions are [not ok]; faster-than-baseline is
    always ok (improvements never fail the gate). *)

val failures : outcome list -> int

val render : unit_:string -> outcome list -> string
(** Aligned verdict table: name, baseline, current, ratio, tolerance,
    PASS/FAIL. *)
