(* Benchmark harness: regenerates every figure of the paper's evaluation
   and micro-benchmarks the PageMaster transformation (the low-order
   polynomial-time claim) and the compiler.

   Usage:  dune exec bench/main.exe                  (everything)
           dune exec bench/main.exe -- fig8          (Fig. 8 only)
           dune exec bench/main.exe -- fig9          (Fig. 9 only)
           dune exec bench/main.exe -- micro         (micro-benchmarks)
           dune exec bench/main.exe -- micro --json  (also write BENCH_micro.json)
           dune exec bench/main.exe -- fig9 --json   (also write BENCH_fig9.json)
           dune exec bench/main.exe -- fig8 --json   (also write BENCH_fig8.json)
           dune exec bench/main.exe -- farm --json   (also write BENCH_farm.json)
           dune exec bench/main.exe -- gate          (re-run + compare baselines)
           dune exec bench/main.exe -- gate --check  (validate baselines only)

   Timing discipline: every micro row is min-of-N (warm-up, calibrated
   repetition count, N timed samples, minimum recorded) with the run
   count and (max-min)/min spread stored beside the value, so the
   committed BENCH_*.json rows are gate-able — `gate` re-measures and
   fails loudly when a row regresses beyond its tolerance
   (Cgra_prof.Bench_gate).

   Parallel sections (fig8/fig9/ablation sweeps) fan out across
   CGRA_DOMAINS worker domains; output is byte-identical at any width.
   The BENCH_*.json files at the repo root are the committed perf
   baseline — regenerate with `make bench-json` and compare trajectories
   across PRs. *)

open Cgra_core

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ----- min-of-N timing ----- *)

type measured = {
  m_name : string;
  ns : float;  (* minimum ns per run over the samples *)
  runs : int;  (* samples taken *)
  spread : float;  (* (max-min)/min over the samples, percent *)
  domains : int;  (* pool width the measured code ran at *)
}

let n_samples = 5

(* One measurement: warm up once, grow the repetition count until one
   batch takes >= 20 ms (so the 1 us clock quantizes below 0.01%), then
   take [n_samples] batches and keep the minimum — the least-disturbed
   run on a shared machine, which is what makes committed rows stable
   enough to gate on. *)
let measure ?(domains = 1) name f =
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
  let samples =
    List.init n_samples (fun _ -> batch reps /. float_of_int reps *. 1e9)
  in
  let mn = List.fold_left Float.min infinity samples in
  let mx = List.fold_left Float.max neg_infinity samples in
  {
    m_name = name;
    ns = mn;
    runs = n_samples;
    spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
    domains;
  }

let show rows =
  List.iter
    (fun r ->
      let human =
        if r.ns >= 1_000_000.0 then Printf.sprintf "%10.2f ms/run" (r.ns /. 1e6)
        else if r.ns >= 1_000.0 then Printf.sprintf "%10.2f us/run" (r.ns /. 1e3)
        else Printf.sprintf "%10.0f ns/run" r.ns
      in
      Printf.printf "  %-40s %s  (min of %d, spread %.1f%%)\n" r.m_name human
        r.runs r.spread)
    rows

(* ----- machine-readable baselines ----- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [results] are measured rows in [unit_]; validated with the project's
   own JSON parser before the file is written, and parseable back with
   Cgra_prof.Bench_gate.parse (the gate's reader). *)
let bench_doc ~bench ~unit_ ~domains ~extras results =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"bench\": %s,\n" (json_string bench);
  Printf.bprintf b "  \"domains\": %d,\n" domains;
  List.iter (fun (k, v) -> Printf.bprintf b "  %s: %s,\n" (json_string k) v) extras;
  Printf.bprintf b "  \"unit\": %s,\n" (json_string unit_);
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length results in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    { \"name\": %s, \"value\": %.3f, \"domains\": %d, \"runs\": %d, \
         \"spread\": %.1f }%s\n"
        (json_string r.m_name) r.ns r.domains r.runs r.spread
        (if i = n - 1 then "" else ","))
    results;
  Buffer.add_string b "  ]\n}\n";
  let data = Buffer.contents b in
  (match Cgra_trace.Json.parse data with
  | Ok _ -> ()
  | Error e -> failwith ("emitted " ^ bench ^ " baseline is not valid JSON: " ^ e));
  (match Cgra_prof.Bench_gate.parse data with
  | Ok _ -> ()
  | Error e -> failwith ("emitted " ^ bench ^ " baseline does not gate-parse: " ^ e));
  data

let write_bench_json ~path ~bench ~unit_ ~domains ~extras results =
  let data = bench_doc ~bench ~unit_ ~domains ~extras results in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data);
  Printf.printf "\nwrote %s (%d results, %s)\n" path (List.length results) unit_

(* ----- Fig. 8: compile-time constraint cost ----- *)

(* The gated quality rows: every fabric's 4-PE-page geomean (the page
   size all three fabrics share, and the one Fig. 8 headlines).  These
   are deterministic functions of the scheduler at seed 0 — no timing,
   no spread — so the gate direction flips: a drop in any row means the
   compiler got worse at its job. *)
let fig8_rows ~pool ~quiet () =
  let w = Cgra_util.Pool.width pool in
  List.filter_map
    (fun size ->
      List.find_map
        (fun (f : Experiments.fig8) ->
          if f.page_pes <> 4 then None
          else begin
            if not quiet then begin
              print_newline ();
              print_endline (Experiments.render_fig8 f)
            end;
            Some
              {
                m_name = Printf.sprintf "fig8 %dx%d p4 geomean" size size;
                ns = f.geomean_pct;
                runs = 1;
                spread = 0.0;
                domains = w;
              }
          end)
        (Experiments.fig8_all ~pool ~size ()))
    Experiments.cgra_sizes

let run_fig8 ~pool ~json () =
  section "Figure 8 - performance cost of the paging constraints (100 * II_b / II_c)";
  List.iter
    (fun size ->
      List.iter
        (fun f ->
          print_newline ();
          print_endline (Experiments.render_fig8 f))
        (Experiments.fig8_all ~pool ~size ()))
    Experiments.cgra_sizes;
  if json then
    write_bench_json ~path:"BENCH_fig8.json" ~bench:"fig8" ~unit_:"percent"
      ~domains:(Cgra_util.Pool.width pool) ~extras:[]
      (fig8_rows ~pool ~quiet:true ())

(* ----- Fig. 9: multithreading improvement ----- *)

(* Wall-clock rows are min-of-N too: each sample clears the compile memo
   so every run pays the same (cold) compile path, and only the first
   sample prints the figures. *)
let fig9_samples = 3

let fig9_rows ~pool ~replicates ~quiet () =
  let w = Cgra_util.Pool.width pool in
  List.map
    (fun size ->
      let sample i =
        Binary.clear_cache ();
        let t0 = Unix.gettimeofday () in
        let figs = Experiments.fig9_all ~replicates ~pool ~size () in
        let dt = Unix.gettimeofday () -. t0 in
        if i = 0 && not quiet then
          List.iter
            (fun f ->
              print_newline ();
              print_endline (Experiments.render_fig9 f))
            figs;
        dt
      in
      let samples = List.init fig9_samples sample in
      let mn = List.fold_left Float.min infinity samples in
      let mx = List.fold_left Float.max neg_infinity samples in
      {
        m_name = Printf.sprintf "fig9 %dx%d sweep" size size;
        ns = mn;
        runs = fig9_samples;
        spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
        domains = w;
      })
    Experiments.cgra_sizes

let fig9_with_total rows ~w =
  let total = List.fold_left (fun acc r -> acc +. r.ns) 0.0 rows in
  let spread =
    List.fold_left (fun acc r -> Float.max acc r.spread) 0.0 rows
  in
  rows
  @ [
      { m_name = "fig9 full sweep"; ns = total; runs = fig9_samples; spread;
        domains = w };
    ]

let run_fig9 ~pool ~replicates ~json () =
  section
    (Printf.sprintf
       "Figure 9 - throughput improvement of multithreading (mean of %d workloads)"
       replicates);
  let rows = fig9_rows ~pool ~replicates ~quiet:false () in
  let w = Cgra_util.Pool.width pool in
  if json then
    write_bench_json ~path:"BENCH_fig9.json" ~bench:"fig9" ~unit_:"wall_s"
      ~domains:w
      ~extras:[ ("replicates", string_of_int replicates) ]
      (fig9_with_total rows ~w)

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

let micro_rows ~quiet () =
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
      with_warm_store (fun arch ->
          List.map (fun (name, f) -> measure name f) (warm_start_benches arch))
    in
    if not quiet then show rows;
    rows
  in
  transform_rows @ greedy_rows @ mapper_rows @ raced_rows @ warm_rows

let run_micro ~json () =
  section "Micro-benchmarks - PageMaster runtime vs. compiler runtime";
  let rows = micro_rows ~quiet:false () in
  if json then
    write_bench_json ~path:"BENCH_micro.json" ~bench:"micro" ~unit_:"ns_per_run"
      ~domains:1 ~extras:[] rows

(* ----- farm: sustained-load serving rows ----- *)

(* The farm quality rows are virtual-clock simulation outputs —
   deterministic functions of the seed, like fig8 — and the gate
   compares them with a flat epsilon: throughput rows gate upward, the
   latency quantiles gate downward.  They still run min-of-3 with the
   spread measured rather than asserted: a nonzero spread in a committed
   file would itself be a determinism bug, surfaced where the gate can
   see it.  Three-plus offered loads trace the load curve from headroom
   through saturation. *)
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
    ("req/kcycle", fun (r : Cgra_farm.Farm.report) -> r.Cgra_farm.Farm.throughput);
    ("latency p50", fun r -> r.Cgra_farm.Farm.latency.p50);
    ("latency p99", fun r -> r.Cgra_farm.Farm.latency.p99);
  ]

(* One config, min-of-[farm_samples]: returns the first report (for
   rendering) and the metric rows. *)
let farm_metric_rows ~pool ~prefix p =
  let w = Cgra_util.Pool.width pool in
  let reports = List.init farm_samples (fun _ -> farm_run ~pool p) in
  let rows =
    List.map
      (fun (name, read) ->
        let samples = List.map read reports in
        let mn = List.fold_left Float.min infinity samples in
        let mx = List.fold_left Float.max neg_infinity samples in
        {
          m_name = Printf.sprintf "%s %s" prefix name;
          ns = mn;
          runs = farm_samples;
          spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
          domains = w;
        })
      farm_quality_metrics
  in
  (List.hd reports, rows)

let farm_rows ~pool ~quiet () =
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

let run_farm ~pool ~json () =
  section
    "Farm - sustained multi-tenant load on the mixed fleet (deterministic, \
     virtual clock)";
  let rows = farm_rows ~pool ~quiet:false () in
  if json then
    write_bench_json ~path:"BENCH_farm.json" ~bench:"farm"
      ~unit_:"req_per_kcycle|cycles" ~domains:(Cgra_util.Pool.width pool)
      ~extras:
        [ ("requests", string_of_int Cgra_farm.Farm.default_params.n_requests);
          ("seed", string_of_int Cgra_farm.Farm.default_params.seed) ]
      rows

(* ----- farm-big: the at-scale harness ----- *)

(* Farm.big_params: 24 mixed shards, 8 tenants, 10^4 requests.  The
   committed file carries three row families: quality at nominal load,
   the overload pair (load 2.0, reconfig cost 100) that pins the
   cost-aware dispatch win — least-loaded and cost-aware side by side,
   so the p99 improvement is in the baseline itself, not a claim — and
   the wall-clock simulation rate of the sequential event loop. *)

let farm_big_quality_rows ~pool ~quiet () =
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

(* Requests per wall-second through the coordinator, min-of-N (best
   rate), with the suite compile pre-warmed so the clock sees the
   discrete-event loop and not the mapper.  The loop is sequential, so
   there is one row, measured on a one-domain pool. *)
let farm_big_rate_rows ~quiet () =
  let p = Cgra_farm.Farm.big_params in
  let row =
    Cgra_util.Pool.with_pool ~domains:1 (fun pool ->
        ignore (farm_run ~pool p);
        let samples =
          List.init farm_samples (fun _ ->
              let t0 = Unix.gettimeofday () in
              ignore (farm_run ~pool p);
              float_of_int p.Cgra_farm.Farm.n_requests
              /. (Unix.gettimeofday () -. t0))
        in
        let mn = List.fold_left Float.min infinity samples in
        let mx = List.fold_left Float.max neg_infinity samples in
        { m_name = "farm-big sim-rate"; ns = mx; runs = farm_samples;
          spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
          domains = Cgra_util.Pool.width pool })
  in
  if not quiet then
    Printf.printf
      "\nFront-end simulation rate: %.0f req/wall-s (best of %d, spread \
       %.1f%%, %d domain)\n"
      row.ns row.runs row.spread row.domains;
  [ row ]

let run_farm_big ~pool ~json () =
  section
    "Farm at scale - 24 mixed shards, 8 tenants, 10000 requests";
  let quality = farm_big_quality_rows ~pool ~quiet:false () in
  let rates = farm_big_rate_rows ~quiet:false () in
  if json then
    write_bench_json ~path:"BENCH_farm_big.json" ~bench:"farm-big"
      ~unit_:"req_per_kcycle|cycles|req_per_wall_s"
      ~domains:(Cgra_util.Pool.width pool)
      ~extras:
        [ ("requests", string_of_int Cgra_farm.Farm.big_params.n_requests);
          ("shards",
           string_of_int (List.length Cgra_farm.Farm.big_params.fleet));
          ("tenants", string_of_int Cgra_farm.Farm.big_params.n_tenants);
          ("seed", string_of_int Cgra_farm.Farm.big_params.seed) ]
      (quality @ rates)

(* ----- gate: the enforced perf contract ----- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> failwith e

let load_baseline path =
  match Cgra_prof.Bench_gate.parse (read_file path) with
  | Ok doc -> doc
  | Error e -> failwith (path ^ ": " ^ e)

(* [check_only] compares each committed baseline against itself: it
   proves the file parses, every row has a tolerance, and the
   self-comparison passes — cheap enough for @smoke.  The full gate
   re-measures and compares for real. *)
let run_gate ~pool ~check_only ~micro_path ~fig9_path ~fig8_path ~farm_path
    ~farm_big_path () =
  section
    (if check_only then "Bench gate - baseline validation (tolerance check only)"
     else "Bench gate - fresh measurements vs. committed baselines");
  let gate name baseline current =
    let outcomes = Cgra_prof.Bench_gate.check ~baseline ~current in
    Printf.printf "\n%s (%s):\n%s" name baseline.Cgra_prof.Bench_gate.unit_
      (Cgra_prof.Bench_gate.render ~unit_:baseline.Cgra_prof.Bench_gate.unit_
         outcomes);
    Cgra_prof.Bench_gate.failures outcomes
  in
  let micro_base = load_baseline micro_path in
  let fig9_base = load_baseline fig9_path in
  let fig8_base = load_baseline fig8_path in
  let farm_base = load_baseline farm_path in
  let farm_big_base = Option.map load_baseline farm_big_path in
  let micro_cur, fig9_cur, fig8_cur, farm_cur, farm_big_cur =
    if check_only then
      (micro_base, fig9_base, fig8_base, farm_base, farm_big_base)
    else begin
      let micro_rows = micro_rows ~quiet:true () in
      let micro_doc =
        bench_doc ~bench:"micro" ~unit_:"ns_per_run" ~domains:1 ~extras:[]
          micro_rows
      in
      let fig9_rows = fig9_rows ~pool ~replicates:3 ~quiet:true () in
      let w = Cgra_util.Pool.width pool in
      let fig9_doc =
        bench_doc ~bench:"fig9" ~unit_:"wall_s" ~domains:w
          ~extras:[ ("replicates", "3") ]
          (fig9_with_total fig9_rows ~w)
      in
      let fig8_doc =
        bench_doc ~bench:"fig8" ~unit_:"percent" ~domains:w ~extras:[]
          (fig8_rows ~pool ~quiet:true ())
      in
      let farm_doc =
        bench_doc ~bench:"farm" ~unit_:"req_per_kcycle|cycles" ~domains:w
          ~extras:[] (farm_rows ~pool ~quiet:true ())
      in
      let farm_big_doc =
        Option.map
          (fun _ ->
            bench_doc ~bench:"farm-big"
              ~unit_:"req_per_kcycle|cycles|req_per_wall_s" ~domains:w
              ~extras:[]
              (farm_big_quality_rows ~pool ~quiet:true ()
              @ farm_big_rate_rows ~quiet:true ()))
          farm_big_base
      in
      ( Result.get_ok (Cgra_prof.Bench_gate.parse micro_doc),
        Result.get_ok (Cgra_prof.Bench_gate.parse fig9_doc),
        Result.get_ok (Cgra_prof.Bench_gate.parse fig8_doc),
        Result.get_ok (Cgra_prof.Bench_gate.parse farm_doc),
        Option.map
          (fun d -> Result.get_ok (Cgra_prof.Bench_gate.parse d))
          farm_big_doc )
    end
  in
  let micro_failures = gate "micro" micro_base micro_cur in
  let fig9_failures = gate "fig9" fig9_base fig9_cur in
  let fig8_failures = gate "fig8" fig8_base fig8_cur in
  let farm_failures = gate "farm" farm_base farm_cur in
  let farm_big_failures =
    match (farm_big_base, farm_big_cur) with
    | Some base, Some cur -> gate "farm-big" base cur
    | _ -> 0
  in
  let failures =
    micro_failures + fig9_failures + fig8_failures + farm_failures
    + farm_big_failures
  in
  if failures > 0 then begin
    Printf.printf "\nbench gate: %d row(s) FAILED\n" failures;
    exit 1
  end
  else print_endline "\nbench gate: all rows within tolerance"

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

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let check_only = List.mem "--check" args in
  let rec opt_value key = function
    | [] -> None
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt_value key rest
  in
  let micro_path = Option.value ~default:"BENCH_micro.json" (opt_value "--micro" args) in
  let fig9_path = Option.value ~default:"BENCH_fig9.json" (opt_value "--fig9" args) in
  let fig8_path = Option.value ~default:"BENCH_fig8.json" (opt_value "--fig8" args) in
  let farm_path = Option.value ~default:"BENCH_farm.json" (opt_value "--farm" args) in
  (* --farm-big opts the at-scale baseline into the gate (it re-measures
     a 10^4-request fleet seven ways, so it is not in the default set) *)
  let farm_big_path =
    if List.mem "--farm-big" args then Some "BENCH_farm_big.json" else None
  in
  let rec drop_opts = function
    | [] -> []
    | ("--micro" | "--fig9" | "--fig8" | "--farm") :: _ :: rest -> drop_opts rest
    | ("--json" | "--check" | "--farm-big") :: rest -> drop_opts rest
    | a :: rest -> a :: drop_opts rest
  in
  let mode = match drop_opts args with [] -> "all" | m :: _ -> m in
  Cgra_util.Pool.with_pool (fun pool ->
      if Cgra_util.Pool.width pool > 1 then
        Printf.printf "(parallel sections across %d domains)\n"
          (Cgra_util.Pool.width pool);
      match mode with
      | "fig8" -> run_fig8 ~pool ~json ()
      | "fig9" -> run_fig9 ~pool ~replicates:3 ~json ()
      | "micro" -> run_micro ~json ()
      | "farm" -> run_farm ~pool ~json ()
      | "farm-big" -> run_farm_big ~pool ~json ()
      | "ablation" -> run_ablation ~pool ()
      | "gate" ->
          run_gate ~pool ~check_only ~micro_path ~fig9_path ~fig8_path
            ~farm_path ~farm_big_path ()
      | "all" ->
          run_fig8 ~pool ~json ();
          run_fig9 ~pool ~replicates:3 ~json ();
          run_farm ~pool ~json ();
          run_ablation ~pool ();
          run_micro ~json ()
      | other ->
          Printf.eprintf
            "unknown mode %s (expected fig8 | fig9 | farm | farm-big | \
             ablation | micro | gate | all; flags: --json, --check, \
             --farm-big, --micro PATH, --fig9 PATH, --fig8 PATH, --farm \
             PATH)\n"
            other;
          exit 1)
