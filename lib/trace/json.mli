(** A deliberately small JSON reader/writer.

    The trace exporters need to {e emit} JSON (JSONL and Chrome
    [trace_event] files) and the test-suite needs to {e validate} what
    was emitted — but the project's dependency contract forbids adding
    [yojson].  This module is the minimal, total implementation of both
    directions: a compact writer with correct string escaping and
    round-trip float formatting, and a recursive-descent parser used to
    check that every emitted trace is well-formed.

    Numbers are all [float] (JSON has one number type); integers within
    2{^53} round-trip exactly and print without a fractional part. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val num_of_int : int -> value
(** [Num (float_of_int n)]. *)

val to_string : value -> string
(** Compact (single-line, no spaces) rendering.  Integral floats print
    with no decimal point; other floats print with enough digits to
    round-trip ([%.15g], widened to [%.17g] when needed). *)

val parse : string -> (value, string) result
(** Full-string parse: leading/trailing whitespace is allowed, trailing
    garbage is an error.  Errors carry a character offset. *)

val member : string -> value -> value option
(** Field lookup in an [Obj]; [None] for other constructors. *)

val to_float : value -> float option

val to_int : value -> int option
(** [Some n] for an integral [Num] of magnitude at most 2{^53}; [None]
    for fractions, larger magnitudes, and other constructors. *)

val to_str : value -> string option
