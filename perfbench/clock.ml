(* Seconds on a monotonic wall clock, to the nanosecond. *)
external now : unit -> float = "perfbench_clock_now"

(* Seconds of CPU time the calling thread has used, to the nanosecond.
   The kernel leaves out the time the thread waited for a CPU, including
   the time the hypervisor gave the virtual CPU to another guest. *)
external cpu : unit -> float = "perfbench_clock_cpu"
