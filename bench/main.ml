(* Benchmark harness: regenerates every figure of the paper's evaluation
   and micro-benchmarks the PageMaster transformation (the low-order
   polynomial-time claim) and the compiler.

   Usage:  dune exec bench/main.exe                   (everything)
           dune exec bench/main.exe -- FAMILY         (one family: micro |
                                                       fig9 | fig8 | farm |
                                                       farm-big)
           dune exec bench/main.exe -- FAMILY --json  (also write its
                                                       BENCH_<family>.json)
           dune exec bench/main.exe -- ablation       (ablations only)
           dune exec bench/main.exe -- gate           (re-run + compare all
                                                       five baselines)
           dune exec bench/main.exe -- gate --check   (validate baselines only)

   Timing discipline: every micro row is min-of-N (warm-up, calibrated
   repetition count, N timed samples, minimum recorded) with the run
   count and (max-min)/min spread stored beside the value, so the
   committed BENCH_*.json rows are gate-able — `gate` re-measures and
   fails loudly when a row moves beyond the bound it states
   (Cgra_prof.Bench_gate).

   Parallel sections (fig8/fig9/ablation sweeps) fan out across
   CGRA_DOMAINS worker domains; output is byte-identical at any width.
   The BENCH_*.json files at the repo root are the committed perf
   baseline — regenerate with `make bench-json` and compare trajectories
   across PRs. *)

open Cgra_core
module Gate = Cgra_prof.Bench_gate

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ----- rows ----- *)

(* A row from its samples: the best one by [better] (the minimum of a
   [Lower] row), with the run count and the (max-min)/min spread, in
   percent, beside it. *)
let summarize ?(domains = 1) ~better ~kind ~bound name samples =
  let mn = List.fold_left Float.min infinity samples in
  let mx = List.fold_left Float.max neg_infinity samples in
  {
    Gate.name;
    value = (match better with Gate.Lower -> mn | Gate.Higher -> mx);
    domains;
    runs = List.length samples;
    spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
    better;
    kind;
    bound;
  }

(* ----- min-of-N timing ----- *)

let n_samples = 5

(* One measurement: warm up once, grow the repetition count until one
   batch takes >= 20 ms (so the 1 us clock quantizes below 0.01%), then
   take [n_samples] batches and keep the minimum — the least-disturbed
   run on a shared machine, which is what makes committed rows stable
   enough to gate on.  A host-time row may double before it fails
   ([bound] 2.0 by default). *)
let measure ?domains ?(bound = 2.0) name f =
  ignore (f ());
  let batch reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Unix.gettimeofday () -. t0
  in
  let rec calibrate reps =
    if batch reps >= 0.02 || reps >= 1_000_000 then reps
    else calibrate (reps * 4)
  in
  let reps = calibrate 1 in
  summarize ?domains ~better:Gate.Lower ~kind:Gate.Measured ~bound name
    (List.init n_samples (fun _ -> batch reps /. float_of_int reps *. 1e9))

let show rows =
  List.iter
    (fun r ->
      let ns = r.Gate.value in
      let human =
        if ns >= 1_000_000.0 then Printf.sprintf "%10.2f ms/run" (ns /. 1e6)
        else if ns >= 1_000.0 then Printf.sprintf "%10.2f us/run" (ns /. 1e3)
        else Printf.sprintf "%10.0f ns/run" ns
      in
      Printf.printf "  %-40s %s  (min of %d, spread %.1f%%)\n" r.name human
        r.runs r.spread)
    rows

(* ----- Fig. 8: compile-time constraint cost ----- *)

(* Every (fabric, page size) table is printed; the gated quality rows
   are every fabric's 4-PE-page geomean (the page size all three fabrics
   share, and the one Fig. 8 headlines).  These are deterministic
   functions of the scheduler at seed 0 — no timing, no spread — so they
   gate upward with a flat 0.05-point slack: a drop in any row means the
   compiler got worse at its job. *)
let fig8_rows ~pool ~quiet =
  let domains = Cgra_util.Pool.width pool in
  List.filter_map
    (fun size ->
      let figs = Experiments.fig8_all ~pool ~size () in
      if not quiet then
        List.iter
          (fun f ->
            print_newline ();
            print_endline (Experiments.render_fig8 f))
          figs;
      List.find_map
        (fun (f : Experiments.fig8) ->
          if f.page_pes <> 4 then None
          else
            Some
              (summarize ~domains ~better:Gate.Higher ~kind:Gate.Exact
                 ~bound:0.05
                 (Printf.sprintf "fig8 %dx%d p4 geomean" size size)
                 [ f.geomean_pct ]))
        figs)
    Experiments.cgra_sizes

(* The work one cold compile of the seed-0 grid does — the 176
   [Scheduler.map] calls behind the three figures — summed from the race
   counters of its searched calls: attempts launched, best-first routing
   searches, and page-polish attempts.  On a one-domain pool these are
   deterministic (a wider pool launches attempts that a winner then
   cancels, depending on timing), so they are exact rows and any rise
   fails.  The minor words of one untraced cold compile on that pool
   are printed beside them, never gated. *)
let fig8_work_rows ~quiet =
  Cgra_util.Pool.with_pool ~domains:1 (fun pool ->
      let compile_grid ?trace () =
        Binary.clear_cache ();
        List.iter
          (fun size ->
            List.iter
              (fun page_pes ->
                match Cgra_arch.Cgra.standard ~size ~page_pes with
                | None -> ()
                | Some arch -> (
                    match Binary.compile_suite ~seed:0 ~pool ?trace arch with
                    | Ok _ -> ()
                    | Error e -> failwith e))
              Experiments.page_sizes)
          Experiments.cgra_sizes
      in
      let before = Gc.minor_words () in
      compile_grid ();
      let words = Gc.minor_words () -. before in
      let trace = Cgra_trace.Trace.make () in
      compile_grid ~trace ();
      let sum name =
        List.fold_left
          (fun acc (e : Cgra_trace.Trace.event) ->
            match e.payload with
            | Counter { name = n; value } when n = name -> acc +. value
            | _ -> acc)
          0.0
          (Cgra_trace.Trace.events trace)
      in
      if not quiet then
        Printf.printf
          "\nMinor words of one cold compile of the seed-0 grid (1 domain): %.0f\n"
          words;
      List.map
        (fun (what, counter) ->
          summarize ~better:Gate.Lower ~kind:Gate.Exact ~bound:0.0
            (Printf.sprintf "fig8 seed-0 grid %s (-j 1)" what)
            [ sum counter ])
        [
          ("attempts launched", "sched.race.launched");
          ("best-first searches", "sched.race.searches");
          ("polish attempts", "sched.race.polish");
        ])

(* ----- Fig. 9: multithreading improvement ----- *)

(* Wall-clock rows are min-of-N too: each sample clears the compile memo
   so every run pays the same (cold) compile path, and only the first
   sample prints the figures. *)
let fig9_samples = 3

let fig9_replicates = 3

let fig9_rows ~pool ~quiet =
  let domains = Cgra_util.Pool.width pool in
  let rows =
    List.map
      (fun size ->
        let sample i =
          Binary.clear_cache ();
          let t0 = Unix.gettimeofday () in
          let figs =
            Experiments.fig9_all ~replicates:fig9_replicates ~pool ~size ()
          in
          let dt = Unix.gettimeofday () -. t0 in
          if i = 0 && not quiet then
            List.iter
              (fun f ->
                print_newline ();
                print_endline (Experiments.render_fig9 f))
              figs;
          dt
        in
        summarize ~domains ~better:Gate.Lower ~kind:Gate.Measured ~bound:2.0
          (Printf.sprintf "fig9 %dx%d sweep" size size)
          (List.init fig9_samples sample))
      Experiments.cgra_sizes
  in
  (* the total gates like its parts, with the widest part's spread *)
  let total = List.fold_left (fun acc r -> acc +. r.Gate.value) 0.0 rows in
  let spread =
    List.fold_left (fun acc r -> Float.max acc r.Gate.spread) 0.0 rows
  in
  rows
  @ [ { (List.hd rows) with name = "fig9 full sweep"; value = total; spread } ]

(* ----- micro-benchmarks ----- *)

let transform_benches () =
  (* the PageMaster fold on real kernel mappings *)
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:8 ~page_pes:4) in
  let mapping name =
    match
      Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch
        (Cgra_kernels.Kernels.find_exn name).graph
    with
    | Ok m -> m
    | Error e -> failwith e
  in
  let sobel = mapping "sobel" in
  let swim = mapping "swim" in
  [
    ( "fold sobel 8x8 to 1 page",
      fun () -> ignore (Result.get_ok (Transform.fold ~target_pages:1 sobel)) );
    ( "fold swim 8x8 to 2 pages",
      fun () -> ignore (Result.get_ok (Transform.fold ~target_pages:2 swim)) );
  ]

let greedy_benches () =
  (* Algorithm 1 at growing page counts: the low-order-polynomial claim *)
  List.map
    (fun n ->
      ( Printf.sprintf "greedy transform N=%03d to M=%03d" n (max 1 (n / 2)),
        fun () -> ignore (Greedy.run ~n ~m:(max 1 (n / 2)) ~ii_p:2 ~iterations:8)
      ))
    [ 8; 16; 32; 64; 128; 256 ]

let mapper_benches () =
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  let mpeg = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let sobel = (Cgra_kernels.Kernels.find_exn "sobel").graph in
  [
    ( "compile mpeg 4x4 (paged)",
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch mpeg)) );
    ( "compile sobel 4x4 (paged)",
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch sobel)) );
  ]

(* The same compiles with the (II, attempt) ladder raced across a pool —
   results are bit-identical to the sequential rows above; only the wall
   clock differs.  [j] is the requested lane count (the pool clamps to
   the machine's cores, so the effective width may be lower). *)
let mapper_raced_benches ~pool ~j () =
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  let mpeg = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let sobel = (Cgra_kernels.Kernels.find_exn "sobel").graph in
  [
    ( Printf.sprintf "compile mpeg 4x4 (paged, -j %d)" j,
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map ~pool Cgra_mapper.Scheduler.Paged arch
                mpeg)) );
    ( Printf.sprintf "compile sobel 4x4 (paged, -j %d)" j,
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map ~pool Cgra_mapper.Scheduler.Paged arch
                sobel)) );
  ]

(* Warm start: thread launch as a disk read.  The suite is compiled once
   into a throwaway store; each timed run then drops the in-memory memo,
   so what's on the clock is the full artifact path — open, integrity
   check, decode — with zero scheduler runs.  Contrast with the cold
   "compile sobel 4x4 (paged)" row above. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_warm_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgra-bench-store-%d" (Unix.getpid ()))
  in
  let store = Cgra_store.open_ dir in
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  Binary.clear_cache ();
  (match Binary.compile_suite arch with
  | Ok bs ->
      List.iter2
        (fun b k -> Cgra_store.save store ~seed:0 arch k b)
        bs Cgra_kernels.Kernels.all
  | Error e -> failwith e);
  Cgra_store.install store;
  Fun.protect
    ~finally:(fun () ->
      Cgra_store.uninstall ();
      Binary.clear_cache ();
      rm_rf dir)
    (fun () -> f arch)

let warm_start_benches arch =
  let sobel = Cgra_kernels.Kernels.find_exn "sobel" in
  [
    ( "compile-sobel-warm",
      fun () ->
        Binary.clear_cache ();
        ignore (Result.get_ok (Binary.compile arch sobel)) );
    ( "compile-suite-warm",
      fun () ->
        Binary.clear_cache ();
        ignore (Result.get_ok (Binary.compile_suite arch)) );
  ]

let micro_rows ~quiet =
  let collect title benches =
    if not quiet then print_endline title;
    let rows = List.map (fun (name, f) -> measure name f) benches in
    if not quiet then show rows;
    rows
  in
  let transform_rows =
    collect "\nPageMaster fold (runtime transformation):" (transform_benches ())
  in
  let greedy_rows =
    collect "\nGreedy Algorithm 1 (page-level, growing N, 8 kernel iterations):"
      (greedy_benches ())
  in
  let mapper_rows =
    collect
      "\nCompiler (for contrast: the transformation must be, and is, orders of\n\
       magnitude cheaper than recompiling):"
      (mapper_benches ())
  in
  let raced_rows =
    if not quiet then
      print_endline
        "\nCompiler, speculative race (same results, ladder fanned across 4 \
         domains):";
    let rows =
      Cgra_util.Pool.with_pool ~domains:4 (fun pool ->
          List.map
            (fun (name, f) -> measure ~domains:4 name f)
            (mapper_raced_benches ~pool ~j:4 ()))
    in
    if not quiet then show rows;
    rows
  in
  let warm_rows =
    if not quiet then
      print_endline
        "\nWarm start from the persistent store (per-run: drop the in-memory \
         memo,\n\
         then load, integrity-check and decode the disk artifact; 0 scheduler \
         runs):";
    let rows =
      (* microsecond-scale disk reads jitter hardest: 4x before a fail *)
      with_warm_store (fun arch ->
          List.map
            (fun (name, f) -> measure ~bound:4.0 name f)
            (warm_start_benches arch))
    in
    if not quiet then show rows;
    rows
  in
  transform_rows @ greedy_rows @ mapper_rows @ raced_rows @ warm_rows

(* ----- farm: sustained-load serving rows ----- *)

(* The farm quality rows are virtual-clock simulation outputs —
   deterministic functions of the seed, like fig8 — and the gate
   compares them with a flat 0.001 slack (the %.3f quantization of the
   written value): throughput rows gate upward, the latency quantiles
   gate downward.  They still run three times with the spread measured
   rather than asserted: a nonzero spread in a committed file would
   itself be a determinism bug, surfaced where the gate can see it.
   Three-plus offered loads trace the load curve from headroom through
   saturation. *)
let farm_samples = 3

let farm_loads = [ 0.5; 1.0; 2.0; 4.0 ]

let farm_run ~pool p =
  match Cgra_farm.Farm.run ~pool p with
  | Ok r -> r
  | Error e ->
      failwith
        (Printf.sprintf "farm load %.1f: %s" p.Cgra_farm.Farm.offered_load e)

let farm_quality_metrics =
  [
    ( "req/kcycle",
      Gate.Higher,
      fun (r : Cgra_farm.Farm.report) -> r.Cgra_farm.Farm.throughput );
    ("latency p50", Gate.Lower, fun r -> r.Cgra_farm.Farm.latency.p50);
    ("latency p99", Gate.Lower, fun r -> r.Cgra_farm.Farm.latency.p99);
  ]

(* One config, [farm_samples] runs: returns the first report (for
   rendering) and the metric rows. *)
let farm_metric_rows ~pool ~prefix p =
  let domains = Cgra_util.Pool.width pool in
  let reports = List.init farm_samples (fun _ -> farm_run ~pool p) in
  let rows =
    List.map
      (fun (name, better, read) ->
        summarize ~domains ~better ~kind:Gate.Exact ~bound:0.001
          (Printf.sprintf "%s %s" prefix name)
          (List.map read reports))
      farm_quality_metrics
  in
  (List.hd reports, rows)

let farm_rows ~pool ~quiet =
  List.concat_map
    (fun load ->
      let p = { Cgra_farm.Farm.default_params with offered_load = load } in
      let first, rows =
        farm_metric_rows ~pool ~prefix:(Printf.sprintf "farm load%.1f" load) p
      in
      if not quiet then begin
        print_newline ();
        print_string (Cgra_farm.Farm.render first)
      end;
      rows)
    farm_loads

(* ----- farm-big: the at-scale harness ----- *)

(* Farm.big_params: 24 mixed shards, 8 tenants, 10^4 requests.  The
   committed file carries three row families: quality at nominal load,
   the overload pair (load 2.0, reconfig cost 100) that pins the
   cost-aware dispatch win — least-loaded and cost-aware side by side,
   so the p99 improvement is in the baseline itself, not a claim — and
   the wall-clock simulation rate of the sequential event loop. *)

let farm_big_quality_rows ~pool ~quiet =
  let p = Cgra_farm.Farm.big_params in
  let show (r : Cgra_farm.Farm.report) =
    if not quiet then begin
      print_newline ();
      print_string (Cgra_farm.Farm.render r)
    end
  in
  let first, base_rows =
    farm_metric_rows ~pool ~prefix:"farm-big load1.0" p
  in
  show first;
  let overload dispatch =
    let p =
      { p with Cgra_farm.Farm.offered_load = 2.0; reconfig_cost = 100.0;
        dispatch }
    in
    let first, rows =
      farm_metric_rows ~pool
        ~prefix:
          (Printf.sprintf "farm-big load2.0 rc100 %s"
             (Cgra_farm.Farm.dispatch_name dispatch))
        p
    in
    show first;
    rows
  in
  base_rows
  @ overload Cgra_farm.Farm.Least_loaded
  @ overload Cgra_farm.Farm.Cost_aware

(* Requests per wall-second through the coordinator, best of N (the
   maximum rate), with the suite compile pre-warmed so the clock sees the
   discrete-event loop and not the mapper.  The loop is sequential, so
   there is one row, measured on a one-domain pool; like the other
   host-time rows it may halve before it fails. *)
let farm_big_rate_row ~quiet =
  let p = Cgra_farm.Farm.big_params in
  let row =
    Cgra_util.Pool.with_pool ~domains:1 (fun pool ->
        ignore (farm_run ~pool p);
        summarize ~better:Gate.Higher ~kind:Gate.Measured ~bound:2.0
          "farm-big sim-rate"
          (List.init farm_samples (fun _ ->
               let t0 = Unix.gettimeofday () in
               ignore (farm_run ~pool p);
               float_of_int p.Cgra_farm.Farm.n_requests
               /. (Unix.gettimeofday () -. t0))))
  in
  if not quiet then
    Printf.printf
      "\nFront-end simulation rate: %.0f req/wall-s (best of %d, spread \
       %.1f%%, %d domain)\n"
      row.value row.runs row.spread row.domains;
  row

(* Minor words the host allocates per simulated request, in one warm
   Farm.run (a first run at the seed compiles its suite) on the
   deployment benchmark's two farm configurations, both with unbounded
   queues: load 1.0 with least-loaded dispatch, and load 1.25 with
   cost-aware dispatch at reconfig cost 100.  Mean of seeds 0-3, on a
   one-domain pool so every word is counted in this domain.  Printed
   only: no gate holds it and no BENCH file records it. *)
let farm_big_words () =
  let module F = Cgra_farm.Farm in
  let nominal = { F.big_params with queue_bound = F.big_params.n_requests } in
  let overload =
    { nominal with offered_load = 1.25; reconfig_cost = 100.0; dispatch = F.Cost_aware }
  in
  Cgra_util.Pool.with_pool ~domains:1 (fun pool ->
      let words p =
        Cgra_util.Stats.mean
          (List.map
             (fun seed ->
               let p = { p with F.seed } in
               ignore (farm_run ~pool p);
               let before = Gc.minor_words () in
               ignore (farm_run ~pool p);
               (Gc.minor_words () -. before) /. float_of_int p.n_requests)
             [ 0; 1; 2; 3 ])
      in
      Printf.printf
        "\nMinor words per request (one warm run, mean of seeds 0-3, unbounded \
         queues): load 1.0 least-loaded %.1f, load 1.25 cost-aware reconfig \
         cost 100 %.1f\n"
        (words nominal) (words overload))

(* ----- ablations (design choices DESIGN.md calls out) ----- *)

let run_ablation ~pool () =
  section "Ablations - assumptions and design choices, varied";
  let show title = function
    | Ok rows ->
        print_newline ();
        print_endline (Experiments.render_ablation ~title rows)
    | Error e -> Printf.printf "%s: error %s\n" title e
  in
  show
    "Reconfiguration cost per PageMaster reshape (8x8, 4-PE pages; the paper \
     assumes 0)"
    (Experiments.ablation_reconfig_cost ~pool ~size:8 ~page_pes:4
       ~costs:[ 0; 10; 100; 1000; 10000 ] ());
  show "Allocation policy (8x8, 4-PE pages)"
    (Experiments.ablation_policy ~pool ~size:8 ~page_pes:4 ());
  show "Memory ports per row bus (4x4, 4-PE pages)"
    (Experiments.ablation_mem_ports ~pool ~size:4 ~page_pes:4 ~ports:[ 1; 2; 4; 8 ] ())

(* ----- the five gated families ----- *)

type family = {
  bench : string;  (* the mode that runs it, and its file's "bench" *)
  file : string;
  unit_ : string;
  title : string;
  extras : (string * string) list;  (* document fields, raw JSON *)
  rows : pool:Cgra_util.Pool.t -> quiet:bool -> Gate.row list;
}

let families =
  let farm = Cgra_farm.Farm.default_params and big = Cgra_farm.Farm.big_params in
  [
    {
      bench = "micro";
      file = "BENCH_micro.json";
      unit_ = "ns_per_run";
      title = "Micro-benchmarks - PageMaster runtime vs. compiler runtime";
      extras = [];
      rows = (fun ~pool:_ ~quiet -> micro_rows ~quiet);
    };
    {
      bench = "fig9";
      file = "BENCH_fig9.json";
      unit_ = "wall_s";
      title =
        Printf.sprintf
          "Figure 9 - throughput improvement of multithreading (mean of %d \
           workloads)"
          fig9_replicates;
      extras = [ ("replicates", string_of_int fig9_replicates) ];
      rows = fig9_rows;
    };
    {
      bench = "fig8";
      file = "BENCH_fig8.json";
      unit_ = "percent";
      title =
        "Figure 8 - performance cost of the paging constraints (100 * II_b / \
         II_c)";
      extras = [];
      rows =
        (fun ~pool ~quiet ->
          let rows = fig8_rows ~pool ~quiet in
          rows @ fig8_work_rows ~quiet);
    };
    {
      bench = "farm";
      file = "BENCH_farm.json";
      unit_ = "req_per_kcycle|cycles";
      title =
        "Farm - sustained multi-tenant load on the mixed fleet \
         (deterministic, virtual clock)";
      extras =
        [ ("requests", string_of_int farm.n_requests);
          ("seed", string_of_int farm.seed) ];
      rows = farm_rows;
    };
    {
      bench = "farm-big";
      file = "BENCH_farm_big.json";
      unit_ = "req_per_kcycle|cycles|req_per_wall_s";
      title = "Farm at scale - 24 mixed shards, 8 tenants, 10000 requests";
      extras =
        [ ("requests", string_of_int big.n_requests);
          ("shards", string_of_int (List.length big.fleet));
          ("tenants", string_of_int big.n_tenants);
          ("seed", string_of_int big.seed) ];
      rows =
        (fun ~pool ~quiet ->
          let rows = farm_big_quality_rows ~pool ~quiet @ [ farm_big_rate_row ~quiet ] in
          if not quiet then farm_big_words ();
          rows);
    };
  ]

(* The family's document as written to its file, checked with the
   gate's own reader, which also gives the gate its fresh rows exactly as
   a file would (values rounded as written). *)
let bench_doc ~pool fam rows =
  let str s = Cgra_trace.Json.to_string (Cgra_trace.Json.Str s) in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"bench\": %s,\n  \"domains\": %d,\n" (str fam.bench)
    (Cgra_util.Pool.width pool);
  List.iter (fun (k, v) -> Printf.bprintf b "  %s: %s,\n" (str k) v) fam.extras;
  Printf.bprintf b "  \"unit\": %s,\n  \"results\": [\n    %s\n  ]\n}\n"
    (str fam.unit_)
    (String.concat ",\n    " (List.map Gate.row_json rows));
  let data = Buffer.contents b in
  match Gate.parse data with
  | Ok doc -> (data, doc)
  | Error e -> failwith (Printf.sprintf "emitted %s does not parse: %s" fam.file e)

let run_family ~pool ~json fam =
  section fam.title;
  let rows = fam.rows ~pool ~quiet:false in
  if json then begin
    let data, _ = bench_doc ~pool fam rows in
    Out_channel.with_open_bin fam.file (fun oc -> output_string oc data);
    Printf.printf "\nwrote %s (%d results, %s)\n" fam.file (List.length rows)
      fam.unit_
  end

(* ----- gate: the enforced perf contract ----- *)

let read_baseline file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> file ^ ": " ^ e) (Gate.parse s)

(* Compares every family's committed file with fresh rows and returns
   the number of failures (an unreadable file is one).  [check_only]
   compares each file with itself instead: it proves the file parses,
   every row states its gate, and the self-comparison passes — cheap
   enough for @smoke and runtest. *)
let gate ~pool ~check_only =
  section
    (if check_only then "Bench gate - baseline validation (no re-measurement)"
     else "Bench gate - fresh measurements vs. committed baselines");
  let failures =
    List.fold_left
      (fun acc fam ->
        match read_baseline fam.file with
        | Error e ->
            Printf.printf "\n%s: FAIL (%s)\n" fam.bench e;
            acc + 1
        | Ok baseline ->
            let current =
              if check_only then baseline
              else snd (bench_doc ~pool fam (fam.rows ~pool ~quiet:true))
            in
            let outcomes = Gate.check ~baseline ~current in
            Printf.printf "\n%s (%s):\n%s" fam.bench baseline.unit_
              (Gate.render ~unit_:baseline.unit_ outcomes);
            acc + Gate.failures outcomes)
      0 families
  in
  if failures > 0 then Printf.printf "\nbench gate: %d FAILED\n" failures
  else print_endline "\nbench gate: all rows within their bounds";
  failures

let () =
  let flags, modes =
    List.partition
      (fun a -> a = "--json" || a = "--check")
      (List.tl (Array.to_list Sys.argv))
  in
  let json = List.mem "--json" flags in
  let status =
    Cgra_util.Pool.with_pool (fun pool ->
        if Cgra_util.Pool.width pool > 1 then
          Printf.printf "(parallel sections across %d domains)\n"
            (Cgra_util.Pool.width pool);
        match modes with
        | [] | [ "all" ] ->
            List.iter (run_family ~pool ~json) families;
            run_ablation ~pool ();
            0
        | [ "ablation" ] ->
            run_ablation ~pool ();
            0
        | [ "gate" ] ->
            if gate ~pool ~check_only:(List.mem "--check" flags) > 0 then 1
            else 0
        | [ m ] when List.exists (fun f -> f.bench = m) families ->
            run_family ~pool ~json (List.find (fun f -> f.bench = m) families);
            0
        | _ ->
            Printf.eprintf
              "usage: main.exe [%s | ablation | gate | all] [--json] [--check]\n"
              (String.concat " | " (List.map (fun f -> f.bench) families));
            1)
  in
  exit status
