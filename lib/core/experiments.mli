(** The paper's evaluation, reproduced (Section VII).

    Figure 8: per-benchmark performance of the paging-constrained compiler
    relative to the unconstrained baseline, [100 * II_b / II_c], for each
    CGRA size and page size.  100% means the constraints cost nothing.

    Figure 9: total-throughput improvement of the multithreaded CGRA over
    the single-threaded non-preemptive CGRA for 1–16 concurrent threads at
    low/medium/high CGRA need (50% / 75% / 87.5%), averaged over several
    random workloads.

    Both figures are returned as structured rows and rendered as aligned
    text tables by the bench harness; see EXPERIMENTS.md for the recorded
    paper-vs-measured comparison.

    Every entry point takes an optional [?pool] ({!Cgra_util.Pool}): the
    independent (CGRA-need, thread-count, replicate) tasks — each with
    its own derived seed — then fan out across domains.  Results are
    regrouped in sequential order, so output is {e byte-identical} at
    any pool width; omitting [pool] runs them in order on the calling
    domain, as a one-domain pool does. *)

type fig8_row = {
  kernel : string;
  ii_base : int;
  ii_paged : int;
  pages_used : int;
  performance_pct : float;  (** [100 * ii_base / ii_paged] *)
}

type fig8 = {
  size : int;
  page_pes : int;
  rows : fig8_row list;
  geomean_pct : float;
}

val fig8 :
  ?seed:int -> ?pool:Cgra_util.Pool.t -> size:int -> page_pes:int -> unit ->
  (fig8, string) result
(** [Error] when the page size leaves fewer than two pages (the paper's
    own omission, e.g. 8-PE pages on 4x4) or a kernel fails to map. *)

val fig8_all : ?seed:int -> ?pool:Cgra_util.Pool.t -> size:int -> unit -> fig8 list
(** The page sizes 2, 4, 8 that apply to this CGRA size — one Fig. 8
    sub-figure. *)

type fig9_point = {
  n_threads : int;
  improvement_pct : float;  (** mean over replicates *)
  ipc_single : float;
  ipc_multi : float;
  utilization_single : float;
  utilization_multi : float;
  stalls : int;  (** total over replicates, multithreaded mode *)
  transformations : int;  (** PageMaster invocations over replicates *)
}

type fig9_series = { cgra_need : float; points : fig9_point list }

type fig9 = { size : int; page_pes : int; series : fig9_series list }

val fig9 :
  ?seed:int -> ?replicates:int -> ?pool:Cgra_util.Pool.t -> size:int ->
  page_pes:int -> unit -> (fig9, string) result
(** Default 3 replicate workloads per point; thread counts 1, 2, 4, 8,
    16; CGRA needs 0.5, 0.75, 0.875. *)

val fig9_all :
  ?seed:int -> ?replicates:int -> ?pool:Cgra_util.Pool.t -> size:int -> unit ->
  fig9 list

val render_fig8 : fig8 -> string

val render_fig9 : fig9 -> string

val cgra_sizes : int list
(** [4; 6; 8] — the paper's three fabrics. *)

val page_sizes : int list
(** [2; 4; 8]. *)

(** {2 Ablations}

    Design-choice sweeps DESIGN.md calls out, not present in the paper:
    each reports the Fig. 9 improvement at 8 and 16 threads (87.5% CGRA
    need) under a varied assumption. *)

type ablation_row = { label : string; metrics : (string * float) list }

val ablation_reconfig_cost :
  ?seed:int -> ?pool:Cgra_util.Pool.t -> size:int -> page_pes:int ->
  costs:int list -> unit -> (ablation_row list, string) result
(** Charge N cycles per PageMaster reshape (the paper assumes 0): where
    does the multithreading gain erode?  Metrics: improvement at 8 and
    16 threads, 87.5% CGRA need. *)

val ablation_policy :
  ?seed:int -> ?pool:Cgra_util.Pool.t -> size:int -> page_pes:int -> unit ->
  (ablation_row list, string) result
(** The paper's halving policy vs. equal-share repacking.  Metrics:
    improvement and transformation counts at 8 and 16 threads. *)

val ablation_mem_ports :
  ?seed:int -> ?pool:Cgra_util.Pool.t -> size:int -> page_pes:int ->
  ports:int list -> unit -> (ablation_row list, string) result
(** Row-bus width sensitivity of the {e compiler}: Fig. 8 geomean per
    ports-per-row value. *)

val render_ablation : title:string -> ablation_row list -> string
