(** Loop-kernel data-flow graphs.

    Vertices are micro-operations; edges are data dependencies annotated
    with an operand position and an iteration {e distance}: an edge with
    distance [d] feeds the value produced [d] iterations earlier
    (loop-carried when [d > 0], as in the recurrences of Fig. 3).

    A graph is valid when every node receives exactly one incoming edge
    per operand slot and the zero-distance subgraph is acyclic (every
    dependence cycle must cross an iteration boundary). *)

type node = { id : int; op : Op.t }

type edge = {
  src : int;
  dst : int;
  operand : int;  (** input position at [dst], in [0, arity) *)
  distance : int;  (** iteration distance; 0 = same iteration *)
}

type t

val create : name:string -> ops:Op.t list -> edges:(int * int * int * int) list -> t
(** [create ~name ~ops ~edges] builds a graph whose node [i] runs
    [List.nth ops i]; each edge is [(src, dst, operand, distance)].
    Raises [Invalid_argument] when validation fails (see {!validate}). *)

val name : t -> string

val n_nodes : t -> int

val node : t -> int -> node

val nodes : t -> node list

val edges : t -> edge list

val n_edges : t -> int

val preds : t -> int -> edge list
(** Incoming edges of a node, sorted by operand position. *)

val succs : t -> int -> edge list

val mem_node_count : t -> int
(** Number of loads and stores. *)

val max_distance : t -> int

val topo_order : t -> int list
(** Topological order of the zero-distance subgraph. *)

val equal_structure : t -> t -> bool
(** Same ops and edge set (names may differ). *)

val pp_summary : Format.formatter -> t -> unit
(** One-line [name: n ops, m edges, k mem] summary. *)
