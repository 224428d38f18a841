(** Byte-level serialization of compiled artifacts.

    This is the persistence contract behind the on-disk binary store
    ([Cgra_store]): a compiled kernel — its unconstrained and paged
    {!Cgra_mapper.Mapping.t}s, or a lowered {!Config.t} context image —
    round-trips through an explicit, versioned byte format so that
    thread launch can be a disk read instead of a scheduler run.

    Design rules:

    - {b Explicit format}: every encoder writes fields one by one
      (zigzag LEB128 varints, length-prefixed strings).  Nothing uses
      [Marshal], so artifacts are stable across compiler versions and
      can be digested byte-for-byte.
    - {b Versioned}: {!format_version} names the payload shape.  The
      store refuses (and recompiles past) any artifact whose version
      word differs — decoders never need to speak old dialects.
    - {b Closed over identity}: mapping payloads do not embed the
      architecture or the kernel graph; the caller supplies both at
      decode time, and the store's key (arch fingerprint x graph
      digest) guarantees they are the ones the artifact was compiled
      against.
    - {b Total decoders}: decoding never raises on hostile bytes — any
      truncation, range error, or trailing garbage is an [Error],
      which the cache treats as a miss. *)

val format_version : int
(** Version word of every payload this module writes.  Bump whenever any
    encoding below changes shape; the store segregates artifacts by it. *)

(** {1 Canonical kernel identity} *)

val graph_bytes : Cgra_dfg.Graph.t -> string
(** Canonical encoding of a kernel DFG: name, per-node operations in id
    order, and the edge list in definition order.  Two structurally
    identical graphs encode identically; this is what {!graph_digest}
    hashes, not any pretty-printed rendering. *)

val graph_digest : Cgra_dfg.Graph.t -> string
(** MD5 of {!graph_bytes}, in hex — the kernel component of persistent
    cache keys.  Computed once per graph value and remembered while the
    graph is alive; safe to call from any domain. *)

(** {1 Mappings} *)

val mapping_bytes : Cgra_mapper.Mapping.t -> string
(** Placements, routes, II, and the paged flag — everything the mapping
    adds on top of its (externally keyed) arch and graph. *)

val mapping_of_bytes :
  arch:Cgra_arch.Cgra.t ->
  graph:Cgra_dfg.Graph.t ->
  string ->
  (Cgra_mapper.Mapping.t, string) result
(** Inverse of {!mapping_bytes} over the given arch and graph.  Checks
    structural sanity (placement count matches the graph, every
    non-constant node is placed, routed edges exist in it, every
    placement and routing hop is on the arch's grid) but not schedule
    legality — run [Cgra_mapper.Mapping.validate] for
    that. *)

(** {1 Compiled binaries (base + paged mapping pair)} *)

val binary_payload :
  name:string -> base:Cgra_mapper.Mapping.t -> paged:Cgra_mapper.Mapping.t -> string

val binary_of_payload :
  arch:Cgra_arch.Cgra.t ->
  graph:Cgra_dfg.Graph.t ->
  string ->
  (string * Cgra_mapper.Mapping.t * Cgra_mapper.Mapping.t, string) result
(** [(name, base, paged)] from a {!binary_payload}. *)

(** {1 Context images} *)

val config_bytes : Config.t -> string
(** Full per-PE context image, including debug node annotations — a
    decoded image runs bit-identically under {!Exec_image.run}. *)

val config_of_bytes : string -> (Config.t, string) result

(** {1 Wire primitives}

    The varint/string framing the encoders above are built from, exposed
    so the artifact store can frame its headers in the same dialect. *)

module Wire : sig
  val w_int : Buffer.t -> int -> unit
  (** Zigzag LEB128: small magnitudes of either sign stay one byte. *)

  val w_str : Buffer.t -> string -> unit
  (** Length-prefixed ({!w_int}) raw bytes. *)

  type reader

  exception Corrupt of string
  (** Raised by the [r_*] functions on truncation or malformed framing;
      callers turn it into a cache miss / [Error]. *)

  val reader : ?pos:int -> string -> reader

  val r_int : reader -> int

  val r_str : reader -> string

  val at_end : reader -> bool
end
