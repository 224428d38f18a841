(** Trace serialization.

    Two formats, both built on {!Json}:

    - {b JSONL} — one self-describing object per event, in emission
      order.  This is the canonical archival format: it is byte-stable
      for a fixed seed (the test-suite's determinism golden), loads with
      one [read_line] loop from any language, and {!Replay} consumes the
      same event stream it encodes.
    - {b Chrome [trace_event]} — a JSON object loadable in Perfetto or
      [chrome://tracing].  Kernel occupancy becomes duration slices per
      thread track, stall-to-grant waits become ["wait:<kernel>"]
      slices, reshapes and arrivals become instants, and allocated-page /
      queue-depth totals become counter tracks.  Timestamps are CGRA
      cycles (displayed as microseconds — the unit label is cosmetic). *)

val jsonl : Trace.event list -> string
(** One flat JSON object per event and line
    ([{"seq":…,"t":…,"kind":…, …payload fields}]), trailing newline
    included. *)

val chrome : ?process_name:string -> Trace.event list -> string
(** A complete [{"traceEvents": […], …}] document.  Every entry carries
    the originating event kind in its ["cat"] field. *)

val kinds : Trace.event list -> string list
(** Distinct {!Trace.kind_name}s present, sorted. *)

val of_jsonl : string -> (Trace.event list, string) result
(** Parse a whole JSONL document (as produced by {!jsonl}) back into
    events, skipping blank lines.  [Export.of_jsonl (Export.jsonl es)]
    returns [Ok es] for any event list.  Unknown kinds, missing fields,
    and wrong field types are [Error]s carrying the 1-based line number,
    never exceptions.  This is what lets [cgra_tool profile] analyze archived
    traces post-hoc. *)
