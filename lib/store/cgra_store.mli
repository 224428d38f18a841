(** Persistent, content-addressed store of compiled kernel binaries.

    The paper's premise is that a CGRA OS launches threads by loading
    pre-compiled, pre-transformed configurations — compilation is
    offline, launch is cheap.  This module makes that true across
    processes: compiled {!Cgra_core.Binary.t}s are serialized with
    [Cgra_isa.Codec] and kept in a directory keyed by

    {v (format version, canonical arch fingerprint, kernel digest, seed) v}

    so every [cgra_tool] invocation and every farm worker that shares a
    store directory launches threads from warm artifacts in microseconds
    and only races the scheduler ladder on genuine misses.

    Integrity before trust: artifacts carry the full key in their header
    plus an MD5 of the payload, and {!load} re-derives and re-checks all
    of it — a truncated, bit-flipped, version-stale, or misfiled
    artifact is {e rejected} (returning [None], i.e. a cache miss that
    falls back to recompilation), never decoded into a wrong binary.
    Writes go through a temp file and an atomic [rename], so concurrent
    writers — domains of one process or whole separate processes — can
    share a directory without readers ever observing a torn file. *)

type t

val open_ : string -> t
(** Open (creating if needed, like [mkdir -p]) a store rooted at the
    given directory. *)

val dir : t -> string

val path_for :
  t -> seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> string
(** The content-addressed path an artifact for this key lives at:
    [dir/hh/<key-hash>.cgrabin], where [hh] shards by the hash's first
    two hex digits. *)

val load :
  t -> seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t ->
  Cgra_core.Binary.t option
(** [None] when the artifact is absent — or present but fails any of:
    magic/version word, key match (arch fingerprint, kernel digest,
    seed), payload digest, payload decode, or kernel-name match.
    Rejections bump {!counters}[.rejects] and are indistinguishable
    from misses to the caller, which recompiles.  Every load reads the
    file and runs every check; only the key is derived once per load
    and serves both the path and the header comparison (the graph
    digest inside it is computed once per graph,
    {!Cgra_isa.Codec.graph_digest}). *)

val decode :
  seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> string ->
  (Cgra_core.Binary.t, string) result
(** The checks {!load} applies to an artifact file's bytes, without the
    file: [Error] names the first one that fails.  Total on any bytes,
    and a decoded binary places every non-constant operation, and every
    routing hop, on the arch's grid
    ({!Cgra_isa.Codec.mapping_of_bytes}). *)

val save :
  t -> seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t ->
  Cgra_core.Binary.t -> unit
(** Serialize and publish atomically (temp file + [rename]).  Best
    effort: IO failure (full disk, unwritable dir) is swallowed and
    counted, never raised — a farm worker must not die because its
    cache is sick. *)

val install : t -> unit
(** Wire this store in as {!Cgra_core.Binary}'s disk tier, making
    [Binary.compile] memory -> disk -> compile. *)

val uninstall : unit -> unit
(** Detach whatever store is installed from [Binary]. *)

type counters = {
  load_hits : int;
  load_misses : int;  (** artifact simply absent *)
  rejects : int;  (** present but corrupt / stale / mismatched *)
  saves : int;
  save_failures : int;
}

val counters : t -> counters
(** This handle's activity since {!open_}. *)

type artifact_status =
  | Intact
  | Stale_version of int  (** decodes, but under a different format version *)
  | Corrupt of string  (** truncated, bad digest, bad magic, misfiled, … *)

val scan : t -> (string * artifact_status) list
(** Audit every [*.cgrabin] under the store root: re-check magic,
    version, payload digest, and that the file sits at the path its key
    hashes to.  Paths are relative to {!dir}, sorted. *)

type stats = {
  artifacts : int;
  bytes : int;
  intact : int;
  stale : int;
  corrupt : int;
}

val stats : t -> stats

val gc : t -> int * int
(** [(removed, bytes_freed)]: delete every non-[Intact] artifact (stale
    format versions, corrupt or misfiled files).  Intact artifacts are
    never touched. *)
