(** One driver for seeded case corpora.

    A harness is a family of independent cases, each reproducible from
    one integer seed: a property-based fuzz case, a differential check
    against an independent witness, a parser fed a mutated input.  The
    harness declares the counters its cases report; the driver owns
    everything else — the fan-out across a {!Pool}, the seed-order
    aggregation, and the one printed summary — so an outcome is
    identical at any pool width. *)

type case = {
  counts : (string * int) list;  (** values for some declared counters *)
  failures : string list;  (** human-readable, with seed context; [] = pass *)
  digest : string;
      (** what the case did, as bytes its harness chooses — usually the
          {!Digest.string} of its event stream or of the bytes it built —
          so that two runs with equal counts but different decisions
          differ here; [""] when the harness pins nothing *)
}
(** What one seed contributed. *)

type harness = {
  name : string;
  counters : string list;  (** every counter a case may report, in print order *)
  case : int -> case;
      (** Run the case a seed denotes.  Cases run on any domain, so they
          must not share mutable state. *)
}

type outcome = {
  harness : string;
  cases : int;  (** seeds run *)
  counts : (string * int) list;
      (** each declared counter summed over every case, in declared order *)
  failures : string list;  (** every case's failures, in seed order *)
  digest : string;
      (** hex MD5 of every case's [digest], concatenated in seed order (a
          case that raised adds nothing) *)
}

val run : ?pool:Pool.t -> harness -> seeds:int list -> outcome
(** Run one case per seed, fanned across [pool] when given.  A case that
    raises counts nothing and contributes one failure naming its seed
    and the exception.  Raises [Invalid_argument] when a case reports a
    counter the harness did not declare. *)

val count : outcome -> string -> int
(** A declared counter's total.  Raises [Not_found] for any other name. *)

val pp : Format.formatter -> outcome -> unit
(** [name: N cases, c1 counter1, c2 counter2, ...] on one line, then
    either [all checks hold] or the failure count and one failure per
    line, then [digest HEX]. *)
