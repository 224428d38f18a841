(** The repo's enforced perf contract: compare freshly measured bench
    rows against the five committed baselines ([BENCH_micro.json],
    [BENCH_fig9.json], [BENCH_fig8.json], [BENCH_farm.json] and
    [BENCH_farm_big.json]) and fail loudly on regressions.

    Every row states its own gate: which direction is better, whether
    the value is an exact virtual-time output or a host-time
    measurement, and how far it may move.  The verdict is decided by
    those fields alone, never by the row's name.

    The comparator lives in the library (not the bench binary) so the
    test-suite can prove both directions: the committed baselines pass
    against themselves, and a row moved beyond its bound fails. *)

type better = Lower | Higher

type kind =
  | Exact
      (** a virtual-time output, reproducible down to float formatting:
          [bound] is an absolute slack (covering the written value's
          [%.3f] quantization) *)
  | Measured
      (** a host-time measurement: [bound] is the allowed factor (at
          least 1), applied as [current <= baseline * bound] for
          [Lower] and [current >= baseline / bound] for [Higher] *)

type row = {
  name : string;
  value : float;  (** finite and non-negative *)
  domains : int;  (** pool width this row ran at *)
  runs : int;  (** samples taken *)
  spread : float;  (** (max-min)/min over the samples, percent *)
  better : better;
  kind : kind;
  bound : float;  (** finite and non-negative; at least 1 if [Measured] *)
}

type doc = { bench : string; unit_ : string; rows : row list }

val parse : string -> (doc, string) result
(** Parse a BENCH_*.json document.  Every row field is required; a
    non-finite or negative [value], [spread] or [bound], a [Measured]
    bound below 1, an unknown [better] or [kind], and two rows with the
    same name are each an [Error]. *)

val row_json : row -> string
(** One row as the single-line JSON object {!parse} reads back
    (value to 3 decimals, spread to 1). *)

type outcome = {
  base : row;  (** the baseline row, whose fields decide the verdict *)
  current : float option;  (** [None]: row missing from the fresh run *)
  ok : bool;
}

val check : baseline:doc -> current:doc -> outcome list
(** One outcome per baseline row, in baseline order.  Missing rows and
    rows beyond their bound in the worse direction are [not ok];
    improvements never fail the gate. *)

val failures : outcome list -> int

val render : unit_:string -> outcome list -> string
(** Aligned verdict table: name, baseline, current, ratio, bound,
    PASS/FAIL. *)
