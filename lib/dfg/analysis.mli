(** Initiation-interval lower bounds and scheduling priorities.

    Modulo scheduling theory (Rau, MICRO'94): the initiation interval of
    any valid software pipeline is bounded below by

    - [ResMII]: resource pressure — here [ceil (ops / PEs)], counting
      every node but constants (which no PE runs), plus memory ports:
      [ceil (mem_ops / total_row_ports)];
    - [RecMII]: recurrence circuits — [max over cycles C of
      ceil (latency(C) / distance(C))] with unit latencies.

    [RecMII] is computed exactly by binary search over candidate IIs with
    positive-cycle detection (Bellman–Ford) on the constraint graph whose
    edge weights are [1 - II * distance]. *)

val res_mii : pes:int -> mem_slots_per_cycle:int -> Graph.t -> int
(** Resource-constrained lower bound for a fabric with [pes] usable PEs
    and [mem_slots_per_cycle] simultaneous memory operations. *)

val rec_mii : Graph.t -> int
(** Recurrence-constrained lower bound; 1 for acyclic graphs. *)

val rec_mii_with : extra:(int * int * int) list -> Graph.t -> int
(** Like {!rec_mii} with additional [(src, dst, distance)] timing
    constraints — the scheduler passes [Memdep.ordering] so that memory
    dependence circuits (e.g. in-place stencil updates) bound the II. *)

val feasible_ii : Graph.t -> int -> bool
(** Whether an II admits a legal schedule w.r.t. recurrences alone. *)

val asap : Graph.t -> int array
(** Earliest start levels on the zero-distance subgraph. *)

val height : Graph.t -> int array
(** Longest zero-distance path from each node to any sink — the classic
    list-scheduling priority (higher = schedule earlier). *)

val critical_path : Graph.t -> int
(** Length in nodes of the longest zero-distance chain. *)

val sccs : Graph.t -> int array
(** Strongly connected components over {e all} edges (loop-carried
    included): [sccs g].(v) is the component index of node [v], and
    component indices are a reverse-topological-order numbering of the
    condensation — scheduling components by ascending index places each
    recurrence circuit's feeders first.  Components with more than one
    node (or a self-loop) are recurrence circuits that must share a page
    under the paging constraints. *)

val scc_topo_rank : Graph.t -> int array
(** Component rank in topological order of the condensation, per node
    (rank 0 first). *)
