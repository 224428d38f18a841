(** Report rendering: human text tables and stable machine JSON.

    Both renderings are deterministic functions of the report — every
    JSON object is emitted with keys sorted, arrays in thread/page/row
    order, and floats through {!Cgra_trace.Json}'s round-trip formatter
    — so golden tests can pin them byte-for-byte and [-j] width can
    never leak into the output. *)

val to_json : Analyze.report -> Cgra_trace.Json.value

val json_string : Analyze.report -> string
(** [Json.to_string (to_json r)] plus a trailing newline. *)

val text : Analyze.report -> string
(** Aligned tables: run header, per-resident page-occupancy heatmap,
    row-bus contention, stall attribution (with a TOTAL row), reshape
    accounting, per-thread latency quantiles, and trailing counters. *)

val bus_pressure_json_string : Analyze.bus_pressure -> string
(** Stable (sorted-key) JSON object for one mapping's exact per-(row,
    slot) port-demand table, plus a trailing newline. *)

val bus_pressure_text : Analyze.bus_pressure -> string
(** One aligned table: a row per row bus, a column per modulo slot,
    demand counts in the cells, plus saturation/headroom totals. *)
