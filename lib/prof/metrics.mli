(** Streaming histograms: log-bucketed distributions with exact-count
    quantiles (p50/p90/p99) and exact min/max, the observability layer's
    one instrument.  {!Analyze}, {!Render} and the farm summarize
    latencies with them; every serialization emits keys sorted, never in
    hash-table iteration order. *)

module Hist : sig
  (** HDR-style log-bucketed histogram: 16 sub-buckets per power of two,
      so any recorded value is attributed with under 6.25% relative
      error, and values that {e are} bucket lower bounds (dyadic
      rationals such as integers up to 2{^20}, or exact cycle counts)
      are reported exactly.  Zero and negative observations (including
      [neg_infinity]) share one bucket with lower bound 0, below every
      other; [infinity] has a bucket of its own with lower bound
      [infinity], above every finite one.  A NaN is refused.  Buckets are
      counted in an array indexed by bucket, so an observation hashes
      nothing. *)

  type t

  val create : unit -> t
  val observe : t -> float -> unit
  (** Raises [Invalid_argument] on a NaN, before counting anything. *)

  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val min_value : t -> float
  (** Exact smallest observation (0 when empty). *)

  val max_value : t -> float
  (** Exact largest observation (0 when empty). *)

  val quantile : t -> float -> float
  (** [quantile h p] with [p] in [\[0,100\]]: nearest-rank quantile —
      the lower bound of the bucket containing the ⌈p/100·n⌉-th smallest
      observation, clamped to [\[min_value, max_value\]].  Exact when
      that observation is a bucket boundary. *)

  type summary = {
    n : int;
    sum : float;
    mean : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  val summary : t -> summary

  val summary_json : t -> Cgra_trace.Json.value
  (** [Obj] with keys sorted: count, max, mean, min, p50, p90, p99, sum. *)
end
