(** The [cgra_tool] command group.  Evaluating it runs one command and
    yields its exit status: 0 on success; 1 after an [error:] line on
    stderr or a defect report on stdout, and before any compile when an
    argument is out of range; cmdliner's own codes for a malformed
    command line. *)

val cmd : int Cmdliner.Cmd.t
