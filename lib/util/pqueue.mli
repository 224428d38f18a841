(** Mutable min-priority queue (binary heap in a growable array).

    The event queue of the discrete-event system simulator
    ([Cgra_core.Os_sim.Engine]).  Priorities are compared with a
    user-supplied total order; ties are broken by push order, so the pop
    order is the total order (priority, push order) and event processing
    is deterministic.  Reading the minimum allocates nothing; a push
    allocates its entry. *)

type ('p, 'a) t
(** Queue with priorities ['p] and payloads ['a]. *)

val create : cmp:('p -> 'p -> int) -> ('p, 'a) t
(** An empty queue ordered by [cmp]. *)

val is_empty : ('p, 'a) t -> bool

val size : ('p, 'a) t -> int
(** Number of entries; O(1). *)

val push : ('p, 'a) t -> 'p -> 'a -> unit
(** [push q p x] inserts [x] with priority [p]; O(log n). *)

val min_prio : ('p, 'a) t -> 'p
(** The smallest priority; O(1).  Raises [Invalid_argument] when the
    queue is empty. *)

val pop_min : ('p, 'a) t -> 'a
(** Removes the entry {!min_prio} names (among equal priorities, the
    earliest pushed) and returns its payload; O(log n).  Raises
    [Invalid_argument] when the queue is empty. *)
