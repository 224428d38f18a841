/* Nanosecond clocks: Unix.gettimeofday only resolves microseconds, too
   coarse for per-launch and per-fold spans, and OCaml has no binding for
   a thread's CPU clock. */

#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

static value seconds_of(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value perfbench_clock_now(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_MONOTONIC);
}

value perfbench_clock_cpu(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_THREAD_CPUTIME_ID);
}
