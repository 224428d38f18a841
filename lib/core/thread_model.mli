(** Simulated threads (Section VII-B of the paper).

    A thread alternates CPU phases with loop kernels it wants accelerated.
    The CGRA-need fraction of a thread is the share of its total work (in
    cycles, at full-CGRA speed) spent in kernel segments — the paper
    evaluates 50% (low), 75% (medium), and 87.5% (high). *)

type segment =
  | Cpu of int  (** cycles on the host processor *)
  | Kernel of { kernel : string; iterations : int }
      (** iterations of a named suite kernel on the CGRA *)

type t = { id : int; segments : segment list }

val kernel_names : t -> string list
(** Distinct kernels the thread uses. *)

val cgra_iterations : t -> (string * int) list
(** Total iterations requested per kernel. *)

val total_cpu : t -> int
