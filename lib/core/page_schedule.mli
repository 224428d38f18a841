(** Page-level view of a mapped kernel — the [P = { p_(n,t) }] abstraction
    of Section VI-C: which operations each page executes in each modulo
    slot.  Used by the greedy transformation reproduction, the ASCII
    walkthroughs, and the runtime's accounting. *)

type t = {
  ii : int;
  n_pages : int;  (** pages the mapping uses *)
  page_ids : int array;
      (** absolute page id of each row, ascending — the used pages need
          not start at page 0 (the runtime relocates mappings) *)
  ops : int list array array;  (** [ops.(rank).(slot)] = node ids *)
  hops : int array array;  (** routing-hop counts per page rank and slot *)
}

val of_mapping : Cgra_mapper.Mapping.t -> t

val occupancy : t -> float
(** Fraction of page-slots holding at least one operation or hop. *)

val pp : Format.formatter -> t -> unit
(** Table in the style of Fig. 6(a): pages across, slots down. *)
