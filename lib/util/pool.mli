(** A reusable fixed-size domain pool for deterministic data parallelism.

    Every hot surface in this project — figure sweeps, ablation grids,
    fuzz corpora — is a list of independent tasks, each reproducible from
    an explicit seed.  This module fans such lists out across OCaml 5
    domains while keeping the results {e exactly} what the sequential
    code would produce:

    - {b Order preservation}: [map]/[filter_map] return results in input
      order, so downstream float accumulations (means, geomeans, stall
      sums) see the same operand order and stay bit-identical.
    - {b Exception propagation}: if tasks raise, the exception of the
      {e earliest} failing input is re-raised in the caller (with its
      backtrace) — the same exception a sequential run would surface.
    - {b Sequential fallback}: a pool of width 1 (the default when
      [CGRA_DOMAINS] is unset) runs tasks in place on the calling domain
      and spawns nothing, so default behaviour is unchanged.

    Tasks must be independent: they may share immutable data (compiled
    suites, kernel graphs) but must not race on mutable state.  Nested
    use of one pool is safe — the caller always participates in its own
    batch, so an inner [map] issued from inside a task makes progress
    even when every helper domain is busy. *)

type t
(** A pool: the calling domain plus [width - 1] parked helper domains. *)

val domains_from_env : unit -> int
(** Width requested by the [CGRA_DOMAINS] environment variable; [1] when
    unset, unparsable, or non-positive. *)

val create : ?clamp:bool -> ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] helper domains (none when
    [domains <= 1]).  Default width: {!domains_from_env}.  The requested
    width is clamped to [Domain.recommended_domain_count ()]: domains
    beyond the core count add minor-GC handshake stalls without adding
    throughput, and results never depend on the width, so the clamp is
    unobservable apart from the wall clock.  [clamp:false] keeps the
    requested width (capped at 64) even past the core count — slower,
    but it forces genuine cross-domain execution, which is what
    determinism tests want to exercise on small machines. *)

val width : t -> int
(** Total domains working a batch, caller included (after clamping). *)

val shutdown : t -> unit
(** Stop and join the helper domains.  Idempotent.  Outstanding batches
    must have completed ([map] only returns once its batch has). *)

val with_pool : ?clamp:bool -> ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with the work spread across the pool.  Results are
    in input order; see the determinism contract above. *)

val filter_map : t -> ('a -> 'b option) -> 'a list -> 'b list
(** Like [List.filter_map]; survivors keep their input order. *)

val race_poll :
  t -> (doomed:(unit -> bool) -> 'a -> 'b option) -> 'a list -> ('a * 'b) option
(** [race_poll t f xs] evaluates [f] over [xs] speculatively across the
    pool and returns [Some (x, y)] for the {e earliest} [x] in [xs] with
    [f ~doomed x = Some y] — exactly what a sequential first-success scan
    would return, at any pool width:

    - {b Deterministic winner}: a shared best-bound records the lowest
      succeeding index; every candidate below it still runs to
      completion (a lower index could still win), while candidates above
      it are abandoned at claim time — they can no longer affect the
      result.
    - {b Mid-flight cancellation}: [doomed] is a cheap poll that turns
      [true] once some earlier candidate has succeeded — this candidate
      can no longer win, so [f] may abandon it and return anything (the
      value is discarded).  [doomed] never turns [true] for the eventual
      winner or any candidate before it.
    - {b Exception propagation}: as in {!map}, the earliest failing
      candidate's exception is re-raised — but only if no candidate
      before it succeeded, mirroring a sequential scan that stops at the
      first success.  Exceptions from speculative work past the winner
      are discarded (a sequential run would never have reached them).
    - {b Width-1 fallback}: with one domain the scan is lazy — nothing
      past the winner is evaluated at all.

    [f] runs speculatively on candidates a sequential scan might never
    reach, so it must be effect-free (or idempotent) on losing
    candidates. *)
