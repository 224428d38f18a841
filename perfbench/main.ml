(* The repository benchmark.

   Every workload runs the paper's whole lifecycle on its own
   deployment, once per scenario:

     compile  cold-compile every fabric config of the deployment into a
              store that holds nothing for the scenario's seed
              (Binary.compile_suite: both compilers run per kernel);
     fig9     the Fig. 9 closed batch on the three 4-PE-page fabrics
              (Experiments.fig9: Os_sim.run, Halving, 3 replicates);
     serve    the deployment's open-loop farm (Farm.run);
     launch   thread launches from the warm store: clear the memo,
              Binary.compile one (config, kernel) pair -- a disk load --
              and Transform.fold it to half the fabric's pages.

   A run covers several scenarios whose seeds derive from --seed; every
   program seed (scheduler tie-breaks, Fig. 9 thread mixes, farm
   arrivals) is a scenario seed.  Pooling scenarios per run is what keeps
   the virtual-time metrics steady from one --seed to the next: a single
   farm seed's capacity varies by a quarter.

   The untraced run (--trace 0) gives the end-to-end metrics: one cycle
   per scenario (virtual-time metrics, checks, warm-up) and the capacity
   search at the run's pool width, then measured steps that repeat one
   scenario's cold compile, fixed-load Farm.run and launch loop each, on
   one domain, until --seconds have passed.  The traced run (--trace 1)
   runs the cycles on one domain with every layer call wrapped in a span
   (see Spans) and gives the per-layer metrics.  Output checks run in
   both, outside the timed sections.  LAYERS.md says which per-layer
   metric moves which end-to-end metric.

   Host times are read on the measuring thread's CPU clock, with no other
   domain alive, and scaled by a calibration (see below).  The benchmark
   shares a few virtual CPUs with other guests: wall time counts the time
   the hypervisor gives the CPU to another guest, and at pool width 2
   every minor collection waits for the other domain to be scheduled, so
   when a second process competed for the CPUs the wall time of a
   two-domain compile tripled and even its CPU time grew by half.  One
   domain's CPU time leaves both out.  The price is that the host metrics
   do not show how well the pool scales; the determinism check still runs
   at both widths. *)

open Cgra_core
module Farm = Cgra_farm.Farm
module Pool = Cgra_util.Pool
module Rng = Cgra_util.Rng
module Kernels = Cgra_kernels.Kernels
module Codec = Cgra_isa.Codec
module T = Cgra_trace.Trace

let now = Clock.now

(* ----- workloads ----- *)

(* Scenario seeds are [16 * seed + i] for i below the workload's
   scenario count, so one --seed names the same scenarios everywhere. *)
let seed_stride = 16

(* Launches in each traced cycle. *)
let launches_per_scenario = 200

(* Launches in each measured step, and checked in each scenario's first
   cycle: a launch takes tens of microseconds, so it takes this many for
   the launch loop to fill a steady share of the step. *)
let launches_per_step = 1000

let fig9_replicates = 3

let fig9_sizes = [ 4; 6; 8 ]

let oracle_iterations = 16

(* The p99.9 limit of [capacity_load]: about six times the unloaded
   median latency of the request mix. *)
let latency_limit = 1500.0

let capacity_lo = 0.5

let capacity_hi = 4.0

let capacity_steps = 6

type workload = {
  name : string;
  scenarios : int;
  configs : (int * int) list;  (** (size, page PEs) compiled per scenario *)
  launch_kernels : string list;
  farm : Farm.params;  (** the seed is replaced by each scenario's *)
}

let grid =
  List.concat_map
    (fun size ->
      List.filter_map
        (fun page_pes ->
          Option.map
            (fun _ -> (size, page_pes))
            (Cgra_arch.Cgra.standard ~size ~page_pes))
        Experiments.page_sizes)
    Experiments.cgra_sizes

(* The open loop never sheds load: a queue as deep as the request count
   means overload shows up as latency, never as refusals. *)
let unbounded (p : Farm.params) = { p with queue_bound = p.n_requests }

let big_nominal = unbounded Farm.big_params

let fleet_configs (p : Farm.params) =
  List.sort_uniq compare
    (List.map (fun (s : Farm.shard_spec) -> (s.size, s.page_pes)) p.fleet)

let workloads =
  [
    {
      name = "paper-eval";
      (* each scenario compiles 176 kernels, so fewer of them; the serving
         stage is Farm.big_params at load 1.0, the nominal fleet *)
      scenarios = 6;
      configs = grid;
      launch_kernels = Kernels.names;
      farm = big_nominal;
    };
    {
      name = "farm-overload";
      scenarios = 12;
      configs = fleet_configs big_nominal;
      launch_kernels = Array.to_list Farm.mix;
      farm =
        {
          big_nominal with
          offered_load = 1.25;
          reconfig_cost = 100.0;
          dispatch = Farm.Cost_aware;
        };
    };
  ]

let scenario_seeds w seed = List.init w.scenarios (fun i -> (seed * seed_stride) + i)

(* ----- output checks ----- *)

let attempted = ref 0

let failed = ref 0

let failures = ref []

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

(* ----- samples, statistics ----- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

(* in the order added *)
let get name = List.rev (Option.value ~default:[] (Hashtbl.find_opt samples name))

let median xs = Cgra_util.Stats.percentile 50.0 xs

let mean = Cgra_util.Stats.mean

let sum = List.fold_left ( +. ) 0.0

(* Exact nearest-rank quantile, in per-mille, of an ascending array. *)
let nearest_rank sorted permille =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) ((((permille * n) + 999) / 1000) - 1)))

(* Every timed section starts from a settled heap, so it does not pay
   for collecting the garbage of the stage before it.  Its time is the
   calling thread's CPU time. *)
let timed f =
  Gc.full_major ();
  let t0 = Clock.cpu () in
  let r = f () in
  (r, Clock.cpu () -. t0)

(* ----- calibration ----- *)

(* The host's neighbours change how fast it runs this process: over one
   run the CPU time of the same compile varied by a third from one second
   to the next, and a whole run could be a fifth slower than the next.
   So every measured host time is paired with a calibration: a fixed
   piece of work that is not the program's (integer-map inserts and
   lookups, a list sort, a hashtable fill, allocating as the program
   does), timed on the same clock just before and just after it.  The
   host time is scaled by [calibration_ref] over the mean of the two:
   it reads as the CPU time on a host running at the reference speed.  A
   change to the program moves the host time and not the calibration. *)
module Int_map = Map.Make (Int)

let calibration_work () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let m = ref Int_map.empty in
  for i = 1 to 20_000 do
    m := Int_map.add (next ()) i !m
  done;
  let found = ref 0 in
  for _ = 1 to 20_000 do
    match Int_map.find_opt (next ()) !m with Some v -> found := !found + v | None -> ()
  done;
  let sorted = List.sort compare (List.init 20_000 (fun _ -> next ())) in
  let h = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) sorted;
  ignore (Sys.opaque_identity (!found, Hashtbl.length h))

(* The reference calibration time, in seconds: about the calibration's
   median on the 2-vCPU host the benchmark was built on, where a run's
   median ranged over 0.016-0.025 s. *)
let calibration_ref = 0.020

let calibrate () =
  Gc.full_major ();
  let t0 = Clock.cpu () in
  calibration_work ();
  let t = Clock.cpu () -. t0 in
  add "calibration_s" t;
  t

(* Host time [t] measured between calibrations [before] and [after],
   scaled to the quiet host. *)
let scaled ~before ~after t = t *. calibration_ref /. ((before +. after) /. 2.0)

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* ----- stores ----- *)

let run_dir = ref ".bench_run"

let n_stores = ref 0

let store_rejects = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_fresh_store f =
  incr n_stores;
  let dir = Filename.concat !run_dir (Printf.sprintf "store-%d" !n_stores) in
  let st = Cgra_store.open_ dir in
  Fun.protect
    ~finally:(fun () ->
      Cgra_store.uninstall ();
      store_rejects := !store_rejects + (Cgra_store.counters st).rejects;
      rm_rf dir)
    (fun () -> f st)

(* [Cgra_store.install] with a span around every load and save. *)
let install_timed st =
  Binary.set_store
    (Some
       {
         Binary.tier_load =
           (fun ~seed arch (k : Kernels.t) ->
             Spans.with_span ~detail:k.name "store.load" (fun () ->
                 Cgra_store.load st ~seed arch k));
         tier_save =
           (fun ~seed arch (k : Kernels.t) b ->
             Spans.with_span ~detail:k.name "store.save" (fun () ->
                 Cgra_store.save st ~seed arch k b));
       })

let without_spans f =
  let was = !Spans.enabled in
  Spans.enabled := false;
  Fun.protect ~finally:(fun () -> Spans.enabled := was) f

(* ----- stage: compile ----- *)

let arch_of (size, page_pes) =
  match Cgra_arch.Cgra.standard ~size ~page_pes with
  | Some a -> a
  | None -> invalid_arg "perfbench: not a standard fabric"

let config_name (size, page_pes) = Printf.sprintf "%dx%d.p%d" size size page_pes

let compile_plain ~pool ~seed configs =
  List.map
    (fun c ->
      ( c,
        ok_or_fail ("compile " ^ config_name c)
          (Binary.compile_suite ~seed ~pool (arch_of c)) ))
    configs

let race_counter tr name =
  List.fold_left
    (fun acc (e : T.event) ->
      match e.payload with
      | T.Counter { name = n; value } when n = name -> acc +. value
      | _ -> acc)
    0.0 (T.events tr)

(* Binary.compile's cold path, one layer call at a time: the store
   lookup that misses, both scheduler runs, the store write. *)
let compile_decomposed ~pool ~seed ~store configs =
  List.map
    (fun c ->
      let arch = arch_of c in
      let suite =
        List.map
          (fun (k : Kernels.t) ->
            let detail = config_name c ^ "/" ^ k.name in
            let hit =
              Spans.with_span ~detail "store.load" (fun () ->
                  Cgra_store.load store ~seed arch k)
            in
            check (Option.is_none hit) (detail ^ ": a fresh store held the binary");
            let map kind name =
              let tr = T.make () in
              let m =
                ok_or_fail detail
                  (Spans.with_span ~detail name (fun () ->
                       Cgra_mapper.Scheduler.map ~seed ~pool ~trace:tr kind arch
                         k.graph))
              in
              add "race.calls" 1.0;
              add "race.launched" (race_counter tr "sched.race.launched");
              add "race.cancelled" (race_counter tr "sched.race.cancelled");
              add "race.polish" (race_counter tr "sched.race.polish");
              m
            in
            let base = map Cgra_mapper.Scheduler.Unconstrained "mapper.unconstrained" in
            let paged = map Cgra_mapper.Scheduler.Paged "mapper.paged" in
            add "race.ii_excess"
              (float_of_int
                 (paged.ii - Cgra_mapper.Scheduler.mii Cgra_mapper.Scheduler.Paged arch k.graph));
            let b = { Binary.name = k.name; graph = k.graph; base; paged } in
            Spans.with_span ~detail "store.save" (fun () ->
                Cgra_store.save store ~seed arch k b);
            b)
          Kernels.all
      in
      (c, suite))
    configs

let suite_bytes suites =
  List.concat_map
    (fun (c, suite) ->
      List.map
        (fun (b : Binary.t) ->
          ( config_name c ^ "/" ^ b.name,
            (Codec.mapping_bytes b.base, Codec.mapping_bytes b.paged) ))
        suite)
    suites

let ratio (b : Binary.t) =
  100.0 *. float_of_int (Binary.ii_base b) /. float_of_int (Binary.ii_paged b)

let check_suites suites =
  List.iter
    (fun (c, suite) ->
      List.iter
        (fun (b : Binary.t) ->
          let k = Kernels.find_exn b.name in
          List.iter
            (fun (what, m) ->
              let where = Printf.sprintf "%s/%s %s" (config_name c) b.name what in
              check
                (Result.is_ok (Cgra_verify.Verify.mapping m))
                (where ^ ": Verify.mapping");
              check
                (Result.is_ok
                   (Cgra_sim.Check.against_oracle m (Kernels.init_memory k)
                      ~iterations:oracle_iterations))
                (where ^ ": oracle"))
            [ ("base", b.base); ("paged", b.paged) ])
        suite)
    suites

(* ----- stage: Fig. 9 ----- *)

let fig9_stage ~pool ~seed =
  List.map
    (fun size ->
      ok_or_fail "fig9"
        (Spans.with_span ~detail:(Printf.sprintf "%dx%d.p4" size size)
           "experiments.fig9" (fun () ->
             Experiments.fig9 ~seed ~replicates:fig9_replicates ~pool ~size
               ~page_pes:4 ())))
    fig9_sizes

let gains_at_16 (f : Experiments.fig9) =
  List.map
    (fun (s : Experiments.fig9_series) ->
      match
        List.find_opt (fun (p : Experiments.fig9_point) -> p.n_threads = 16) s.points
      with
      | Some p -> p.improvement_pct
      | None -> failwith "fig9: no 16-thread point")
    f.series

(* ----- stage: serve ----- *)

let serve ?pool ?(traced = false) p = ok_or_fail "farm" (Farm.run ?pool ~traced p)

(* arrival -> retire per offered request, ascending; a refused request
   is missing *)
let latencies (r : Farm.report) =
  let a =
    Array.of_list
      (List.map
         (fun (q : Farm.request) ->
           match q.terminal with
           | Some Farm.Retired -> q.retired_at -. q.arrival
           | Some Farm.Rejected | None -> infinity)
         r.requests)
  in
  Array.sort compare a;
  a

let report_digest r =
  Digest.to_hex
    (Digest.string (Farm.render ~log:true r ^ Marshal.to_string (latencies r) []))

let check_report (r : Farm.report) =
  let problems = Cgra_farm.Farm_fuzz.check_report r in
  check (problems = []) ("farm report: " ^ String.concat "; " problems);
  (* every offered request is an operation; a refusal fails it *)
  attempted := !attempted + r.offered;
  failed := !failed + r.rejected

(* ----- stage: launch ----- *)

let launch_pairs w =
  Array.of_list
    (List.concat_map
       (fun c -> List.map (fun n -> (c, Kernels.find_exn n)) w.launch_kernels)
       w.configs)

(* A launch loop's sequence: [n] (config, kernel) pairs drawn from the
   seed. *)
let launch_sequence ~seed ~pairs ~n =
  let rng = Rng.create ~seed in
  Array.init n (fun _ ->
      let c, (k : Kernels.t) = pairs.(Rng.int rng (Array.length pairs)) in
      (c, k, config_name c ^ "/" ^ k.name))

(* One launch: clear the memo, load the pair from the warm store
   (Binary.compile), fold it to half the fabric's pages. *)
let launch ~pool ~seed (c, k, where) =
  let arch = arch_of c in
  let target_pages = max 1 (Cgra_arch.Cgra.n_pages arch / 2) in
  Binary.clear_cache ();
  Spans.with_span ~root:true ~detail:where "launch" (fun () ->
      match Spans.with_span "binary.compile" (fun () -> Binary.compile ~seed ~pool arch k) with
      | Error e -> Error e
      | Ok b ->
          Ok (b, Spans.with_span "pagemaster.fold" (fun () -> Transform.fold ~target_pages b.paged)))

(* What a repeat of a launch must reproduce: the II of both mappings,
   and the fold's pages, fold factor, PE exactness, II and route count. *)
type launch_summary = (int * int * (int * int * bool * int * int, string) result, string) result

let launch_summary : _ -> launch_summary = function
  | Error e -> Error e
  | Ok ((b : Binary.t), fold) ->
      Ok
        ( b.base.ii,
          b.paged.ii,
          Result.map
            (fun (sh : Transform.shrunk) ->
              (sh.m_eff, sh.s, sh.pe_exact, sh.mapping.ii, List.length sh.mapping.routes))
            fold )

let exact_folds = ref 0

let folds = ref 0

(* Every launch of the sequence, checked in full: a disk hit that
   compiles nothing, the cold mappings byte for byte, a fold that
   succeeds, and each pair's PE-exact fold verified the first time the
   loop meets it (a fold is a function of the mapping it folds).  Returns
   each launch's summary, for the timed repeats to reproduce. *)
let checked_launches ~pool ~seed ~cold seq =
  let verified = Hashtbl.create 16 in
  without_spans (fun () ->
      Array.map
        (fun ((_, _, where) as p) ->
          let before = Binary.stats () in
          let r = launch ~pool ~seed p in
          let after = Binary.stats () in
          check
            (after.disk_hits = before.disk_hits + 1 && after.compiles = before.compiles)
            (where ^ ": launch did not load from the warm store");
          (match r with
          | Error e -> check false (where ^ ": " ^ e)
          | Ok (b, fold) -> (
              check
                (List.assoc_opt where cold
                = Some (Codec.mapping_bytes b.base, Codec.mapping_bytes b.paged))
                (where ^ ": warm-loaded mapping differs from the cold one");
              check (Result.is_ok fold) (where ^ ": Transform.fold failed");
              match fold with
              | Error _ -> ()
              | Ok sh ->
                  incr folds;
                  if sh.pe_exact then incr exact_folds;
                  if sh.pe_exact && not (Hashtbl.mem verified where) then begin
                    Hashtbl.replace verified where ();
                    check
                      (Result.is_ok (Cgra_verify.Verify.mapping ~check_mem:false sh.mapping))
                      (where ^ ": PE-exact fold fails Verify.mapping")
                  end));
          launch_summary r)
        seq)

(* The launches of the sequence back to back, each timed on the CPU
   clock; each must be a disk hit and reproduce its checked summary.
   Returns the times, in order. *)
let timed_launches ~pool ~seed seq expected =
  Gc.full_major ();
  Array.to_list
    (Array.mapi
       (fun i ((_, _, where) as p) ->
         let before = Binary.stats () in
         let t0 = Clock.cpu () in
         let r = launch ~pool ~seed p in
         let t = Clock.cpu () -. t0 in
         let after = Binary.stats () in
         check
           (after.disk_hits = before.disk_hits + 1
           && after.compiles = before.compiles
           && launch_summary r = expected.(i))
           (where ^ ": a repeated launch differs from the checked one");
         t)
       seq)

(* ----- capacity ----- *)

(* Highest offered load at which one scenario's p99.9 meets the limit,
   by bisection on [capacity_lo, capacity_hi]; [false] when even the
   lowest load misses it.  Runs on any pool domain, so it records no
   checks itself. *)
let scenario_capacity w seed =
  let meets load =
    nearest_rank (latencies (serve { w.farm with seed; offered_load = load })) 999
    <= latency_limit
  in
  let rec go lo hi n passed =
    if n = 0 then (lo, passed)
    else
      let mid = (lo +. hi) /. 2.0 in
      if meets mid then go mid hi (n - 1) true else go lo mid (n - 1) passed
  in
  let cap, passed = go capacity_lo capacity_hi capacity_steps false in
  (cap, passed || meets capacity_lo)

(* The mean over [capacity_scenarios] scenarios of their capacities.  One
   seed's capacity varies by a quarter, and the mean of many is steadier
   than their median.  Each scenario's search runs its farms one after
   another, so the scenarios fan out across the pool. *)
let capacity_scenarios = 12

let capacity ~pool w seed =
  let seeds = List.init capacity_scenarios (fun i -> (seed * seed_stride) + i) in
  let caps = Pool.map pool (scenario_capacity w) seeds in
  List.iter2
    (fun s (_, ok) ->
      check ok (Printf.sprintf "seed %d: the lowest load misses the latency limit" s))
    seeds caps;
  mean (List.map fst caps)

(* ----- the untraced run ----- *)

type virt = {
  ratios : float list;  (** 100 II_b / II_c per (config, kernel) *)
  gains : float list;  (** Fig. 9 improvement at 16 threads per (fabric, need) *)
  throughput : float;
  lat : float array;
  cold : (string * (string * string)) list;  (** the cold-compiled mappings *)
  seq : ((int * int) * Kernels.t * string) array;  (** the launch sequence *)
  expected : launch_summary array;  (** the checked summary of each launch *)
  farm_digest : string;
  digest : string;  (** every virtual-time output of the scenario *)
}

(* A scenario's whole cycle, in an empty store.  It also warms the
   process up (heap growth, first-touch pages), so its host times are not
   kept. *)
let cycle w ~pool ~pairs ~seed =
  Binary.clear_cache ();
  let suites = compile_plain ~pool ~seed w.configs in
  check_suites suites;
  let figs = fig9_stage ~pool ~seed in
  let report = serve ~pool { w.farm with seed } in
  check_report report;
  let cold = suite_bytes suites in
  let seq = launch_sequence ~seed ~pairs ~n:launches_per_step in
  let expected = checked_launches ~pool ~seed ~cold seq in
  let farm_digest = report_digest report in
  {
    ratios = List.concat_map (fun (_, suite) -> List.map ratio suite) suites;
    gains = List.concat_map gains_at_16 figs;
    throughput = report.throughput;
    lat = latencies report;
    cold;
    seq;
    expected;
    farm_digest;
    digest =
      Digest.to_hex (Digest.string (Marshal.to_string (cold, figs) [] ^ farm_digest));
  }

(* One measured step, in its own empty store: a scenario's cold compile,
   fixed-load Farm.run and launch loop, each reproducing its first cycle
   and each between two calibrations. *)
let step w ~pool ~seed v =
  Binary.clear_cache ();
  let c0 = calibrate () in
  let suites, t = timed (fun () -> compile_plain ~pool ~seed w.configs) in
  let c1 = calibrate () in
  add "compile_s" (scaled ~before:c0 ~after:c1 t);
  add "raw.compile_s" t;
  check (suite_bytes suites = v.cold)
    (Printf.sprintf "seed %d: a repeated compile differs from the first" seed);
  let report, t = timed (fun () -> serve ~pool { w.farm with seed }) in
  let c2 = calibrate () in
  add "sim_rate" (float_of_int report.offered /. scaled ~before:c1 ~after:c2 t);
  add "raw.sim_rate" (float_of_int report.offered /. t);
  check (report_digest report = v.farm_digest)
    (Printf.sprintf "seed %d: a repeated Farm.run differs from the first" seed);
  let ts = timed_launches ~pool ~seed v.seq v.expected in
  let c3 = calibrate () in
  List.iter
    (fun t ->
      add "launch_s" (scaled ~before:c2 ~after:c3 t);
      add "raw.launch_s" t)
    ts

(* The host-time metrics: (name, unit, samples, statistic).  Each is a
   median over the whole measured phase: compile and sim rate over its
   steps, the launch percentiles over every launch. *)
let host_metrics =
  [
    ("compile_cpu_s", "s", "compile_s", median);
    ("sim_rate_req_per_cpu_s", "req/s", "sim_rate", median);
    ("launch_cpu_us_p50", "us", "launch_s", fun xs -> 1e6 *. median xs);
    ("launch_cpu_us_p95", "us", "launch_s", fun xs -> 1e6 *. Cgra_util.Stats.percentile 95.0 xs);
  ]

let run_untraced w ~width ~seed ~seconds =
  let seeds = scenario_seeds w seed in
  let pairs = launch_pairs w in
  let start = now () in
  let first, cap =
    Pool.with_pool ~domains:width (fun pool ->
        with_fresh_store (fun st ->
            Cgra_store.install st;
            let first = List.map (fun s -> cycle w ~pool ~pairs ~seed:s) seeds in
            (first, capacity ~pool w seed)))
  in
  Printf.printf "first cycles and capacity search in %.1f s\n" (now () -. start);
  (* Steps go round the scenarios, every one at least once, until
     --seconds have passed.  The pool of the run has been shut down, so
     the measuring thread is the only domain. *)
  let scenarios = Array.of_list (List.combine seeds first) in
  let start = now () in
  let steps = ref 0 in
  Pool.with_pool ~domains:1 (fun pool ->
      while !steps < Array.length scenarios || now () -. start < float_of_int seconds do
        let s, v = scenarios.(!steps mod Array.length scenarios) in
        with_fresh_store (fun st ->
            Cgra_store.install st;
            step w ~pool ~seed:s v);
        incr steps
      done);
  Printf.printf "%d measured steps over %d scenarios in %.1f s\n" !steps w.scenarios
    (now () -. start);
  (* The statistic over the first and the second half of the steps: how
     far apart they are says how steady the run was. *)
  let halves samples =
    let xs = get samples in
    let h = List.length xs / 2 in
    (List.filteri (fun i _ -> i < h) xs, List.filteri (fun i _ -> i >= h) xs)
  in
  List.iter
    (fun (name, _, samples, stat) ->
      let a, b = halves samples in
      Printf.printf
        "  %s: %.4g over the whole phase (%d samples), %.4g and %.4g over its halves; %.4g \
         unscaled\n"
        name (stat (get samples))
        (List.length (get samples))
        (stat a) (stat b)
        (stat (get ("raw." ^ samples))))
    host_metrics;
  let cal = get "calibration_s" in
  Printf.printf "  calibration: median %.4g s (reference %.4g s), range %.4g-%.4g s\n"
    (median cal) calibration_ref
    (List.fold_left Float.min infinity cal)
    (List.fold_left Float.max 0.0 cal);
  Printf.printf "virtual-time digest %s\n"
    (Digest.to_hex
       (Digest.string (String.concat "" (List.map (fun v -> v.digest) first))));
  List.iteri
    (fun i size ->
      let g =
        mean
          (List.concat_map
             (fun v ->
               let n = List.length v.gains / List.length fig9_sizes in
               List.filteri (fun j _ -> j / n = i) v.gains)
             first)
      in
      Printf.printf "fig9 %dx%d p4 gain at 16 threads %.1f%% (the paper's: at least %s)\n"
        size size g
        (match size with 4 -> "30%" | 6 -> "75%" | _ -> "150%"))
    fig9_sizes;
  (* per-scenario values, reduced by the median: one scenario whose
     compile leaves the fleet short of capacity must not set the
     run's tail *)
  let scenario_median f = median (List.map f first) in
  let host name =
    let _, unit, samples, stat = List.find (fun (n, _, _, _) -> n = name) host_metrics in
    (name, unit, stat (get samples))
  in
  [
    host "compile_cpu_s";
    host "launch_cpu_us_p50";
    host "launch_cpu_us_p95";
    ( "fig8_geomean_pct",
      "%",
      Cgra_util.Stats.geomean (List.concat_map (fun v -> v.ratios) first) );
    ("fig9_gain_pct", "%", mean (List.concat_map (fun v -> v.gains) first));
    host "sim_rate_req_per_cpu_s";
    ("throughput_req_per_kcycle", "req/kcycle", scenario_median (fun v -> v.throughput));
    ("latency_p50_cycles", "cycles", scenario_median (fun v -> nearest_rank v.lat 500));
    ("latency_p99_cycles", "cycles", scenario_median (fun v -> nearest_rank v.lat 990));
    ("latency_p999_cycles", "cycles", scenario_median (fun v -> nearest_rank v.lat 999));
    ("capacity_load", "x", cap);
  ]

(* ----- the traced run ----- *)

let farm_checks (p : Farm.params) (r : Farm.report) =
  check_report r;
  let m =
    Cgra_farm.Farm_fuzz.monitor ~queue_bound:p.queue_bound
      ~max_resident:p.max_resident r.farm_events
  in
  check (m = []) ("farm monitor: " ^ String.concat "; " m);
  List.iter2
    (fun (sr : Farm.shard_report) evs ->
      let a = Cgra_verify.Os_fuzz.monitor evs in
      check (a = []) (Printf.sprintf "shard %d monitor: %s" sr.s_index (String.concat "; " a));
      let b = Cgra_verify.Os_fuzz.replay_check sr.s_os evs in
      check (b = [])
        (Printf.sprintf "shard %d replay_check: %s" sr.s_index (String.concat "; " b)))
    r.shard_reports r.shard_events

(* Replay each shard's admission order through a fresh engine; the
   result must equal the shard's own.  The time is the Engine's share of
   a Farm.run; the rest is the coordinator's. *)
let replay_engines ~seed (p : Farm.params) (r : Farm.report) =
  let requests = Array.of_list r.requests in
  let admits = Array.make (List.length r.shard_reports) [] in
  List.iter
    (fun (e : T.event) ->
      match e.payload with
      | T.Farm_admit { req; shard; _ } -> admits.(shard) <- (e.time, req) :: admits.(shard)
      | _ -> ())
    r.farm_events;
  let shards =
    List.map
      (fun (sr : Farm.shard_report) ->
        ( sr,
          ok_or_fail "replay"
            (Binary.compile_suite ~seed (arch_of (sr.s_spec.size, sr.s_spec.page_pes))) ))
      r.shard_reports
  in
  Gc.full_major ();
  let results =
    Spans.with_span ~root:true "engine.replay" (fun () ->
        List.map
          (fun ((sr : Farm.shard_report), suite) ->
            Spans.with_span ~detail:(string_of_int sr.s_index) "engine.shard" (fun () ->
                let e =
                  Os_sim.Engine.create ~policy:p.policy ~reconfig_cost:p.reconfig_cost
                    ~suite ~total_pages:sr.s_pages ~mode:Os_sim.Multi ()
                in
                let last = ref Float.neg_infinity in
                List.iter
                  (fun (time, req) ->
                    if time > !last then begin
                      Os_sim.Engine.run_until e time;
                      last := time
                    end;
                    let q = requests.(req) in
                    Os_sim.Engine.submit e ~at:time
                      {
                        Thread_model.id = req;
                        segments =
                          [ Thread_model.Kernel { kernel = q.kernel; iterations = q.iterations } ];
                      })
                  (List.rev admits.(sr.s_index));
                Os_sim.Engine.drain e;
                Os_sim.Engine.result e))
          shards)
  in
  List.iter2
    (fun (sr : Farm.shard_report) res ->
      check (compare res sr.s_os = 0)
        (Printf.sprintf "shard %d: engine replay differs from the farm" sr.s_index))
    r.shard_reports results

let farm_layers (r : Farm.report) =
  let shards = r.shard_reports in
  let fsum f = sum (List.map f shards) in
  add "farm.epochs" (float_of_int r.epochs);
  add "farm.refused" (float_of_int r.rejected);
  List.iter
    (fun (q : Farm.request) ->
      if q.terminal = Some Farm.Retired then add "farm.queue_wait" (q.dispatched -. q.arrival))
    r.requests;
  let busy = List.map (fun (s : Farm.shard_report) -> s.s_busy_cycles) shards in
  add "farm.imbalance" (List.fold_left Float.max 0.0 busy /. mean busy);
  add "engine.events"
    (float_of_int (List.fold_left (fun acc evs -> acc + List.length evs) 0 r.shard_events));
  add "engine.transformations" (fsum (fun s -> float_of_int s.s_os.Os_sim.transformations));
  add "engine.stalls" (fsum (fun s -> float_of_int s.s_os.Os_sim.stalls));
  add "os.page_utilization" (mean (List.map (fun (s : Farm.shard_report) -> s.s_os.page_utilization) shards));
  let profiles =
    List.map (fun evs -> ok_or_fail "profile" (Cgra_prof.Analyze.profile evs)) r.shard_events
  in
  let psum f = sum (List.map f profiles) in
  let stall_sum f =
    psum (fun (p : Cgra_prof.Analyze.report) -> sum (List.map f p.stalls))
  in
  add "alloc.decisions" (psum (fun p -> float_of_int p.reshapes.decisions));
  add "alloc.denials" (psum (fun p -> float_of_int p.reshapes.denials));
  add "alloc.pages_rewritten" (psum (fun p -> float_of_int p.reshapes.pages_rewritten));
  add "os.reshape_cycles" (stall_sum (fun s -> s.reshape));
  add "os.queueing_cycles" (stall_sum (fun s -> s.queueing));
  add "os.execution_cycles" (stall_sum (fun s -> s.execution))

(* Pool width 1 must reproduce every virtual-time output of the run's
   width: the cold compile, the Fig. 9 batch and the farm. *)
let width_check w ~width ~seed =
  let outputs domains =
    Pool.with_pool ~domains (fun pool ->
        Binary.clear_cache ();
        let suites = compile_plain ~pool ~seed w.configs in
        (suite_bytes suites, fig9_stage ~pool ~seed, report_digest (serve ~pool { w.farm with seed })))
  in
  let b1, f1, r1 = outputs 1 and b2, f2, r2 = outputs width in
  check (b1 = b2) (Printf.sprintf "pool widths 1 and %d compile different mappings" width);
  check (compare f1 f2 = 0)
    (Printf.sprintf "pool widths 1 and %d give different Fig. 9 results" width);
  check (r1 = r2) (Printf.sprintf "pool widths 1 and %d give different farm reports" width)

let traced_cycle w ~pool ~pairs ~pass ~seed =
  (* the plain cold compile the decomposed one must add up to *)
  let plain, t =
    without_spans (fun () ->
        with_fresh_store (fun a ->
            Cgra_store.install a;
            Binary.clear_cache ();
            timed (fun () -> compile_plain ~pool ~seed w.configs)))
  in
  add "plain.compile_s" t;
  with_fresh_store (fun st ->
      Binary.clear_cache ();
      Gc.full_major ();
      let suites =
        Spans.with_span ~root:true "compile" (fun () ->
            compile_decomposed ~pool ~seed ~store:st w.configs)
      in
      check (suite_bytes suites = suite_bytes plain)
        "the decomposed compile differs from Binary.compile_suite";
      if pass = 0 then check_suites suites;
      add "store.bytes" (float_of_int (Cgra_store.stats st).bytes);
      List.iter
        (fun (c, suite) ->
          if snd c = 4 then
            add ("fig8." ^ config_name c) (Cgra_util.Stats.geomean (List.map ratio suite)))
        suites;
      install_timed st;
      (* fill the memo from the store, so fig9 and the farm time only
         their own layers, as they do in the untraced run *)
      without_spans (fun () -> ignore (compile_plain ~pool ~seed w.configs));
      Gc.full_major ();
      let figs = Spans.with_span ~root:true "fig9" (fun () -> fig9_stage ~pool ~seed) in
      let points =
        List.concat_map
          (fun (f : Experiments.fig9) ->
            List.concat_map (fun (s : Experiments.fig9_series) -> s.points) f.series)
          figs
      in
      add "fig9.transformations"
        (float_of_int (List.fold_left (fun a (p : Experiments.fig9_point) -> a + p.transformations) 0 points));
      add "fig9.stalls"
        (float_of_int (List.fold_left (fun a (p : Experiments.fig9_point) -> a + p.stalls) 0 points));
      List.iter2
        (fun size f -> add (Printf.sprintf "fig9.%dx%d" size size) (mean (gains_at_16 f)))
        fig9_sizes figs;
      let p = { w.farm with seed } in
      Gc.full_major ();
      let untraced = Spans.with_span ~root:true "farm.run" (fun () -> serve ~pool p) in
      Gc.full_major ();
      let traced =
        Spans.with_span ~root:true "farm.run.traced" (fun () -> serve ~pool ~traced:true p)
      in
      check (report_digest traced = report_digest untraced)
        "the traced farm run differs from the untraced one";
      if pass = 0 then farm_checks p traced;
      replay_engines ~seed p traced;
      farm_layers traced;
      let cold = suite_bytes suites in
      let seq = launch_sequence ~seed ~pairs ~n:launches_per_scenario in
      let expected = checked_launches ~pool ~seed ~cold seq in
      List.iter (add "traced.launch_s") (timed_launches ~pool ~seed seq expected);
      Cgra_store.install st;
      without_spans (fun () ->
          List.iter (add "plain.launch_s") (timed_launches ~pool ~seed seq expected)))

(* The width check, then traced passes over every scenario on one
   domain: at least one, and another only while it would end within
   --seconds. *)
let run_traced w ~width ~seed ~seconds =
  let seeds = scenario_seeds w seed in
  let pairs = launch_pairs w in
  width_check w ~width ~seed:(List.hd seeds);
  let start = now () and origin = Clock.cpu () in
  Binary.reset_stats ();
  Spans.enabled := true;
  let passes = ref 0 in
  Pool.with_pool ~domains:1 (fun pool ->
      let more () =
        let elapsed = now () -. start in
        !passes = 0
        || elapsed +. (elapsed /. float_of_int !passes) <= float_of_int seconds
      in
      while more () do
        List.iter (fun s -> traced_cycle w ~pool ~pairs ~pass:!passes ~seed:s) seeds;
        incr passes
      done);
  Spans.enabled := false;
  let cycles = float_of_int (!passes * w.scenarios) in
  let spans = Spans.all () in
  let roots = Spans.roots spans in
  let under root name =
    List.filter
      (fun (s : Spans.t) -> s.name = name && Hashtbl.find_opt roots s.group = Some root)
      spans
  in
  let durations xs = List.map Spans.duration xs in
  (* one sum per root span, in order *)
  let per_group xs =
    let h = Hashtbl.create 64 in
    List.iter
      (fun (s : Spans.t) ->
        Hashtbl.replace h s.group
          (Spans.duration s +. Option.value ~default:0.0 (Hashtbl.find_opt h s.group)))
      xs;
    List.map snd (List.sort compare (Hashtbl.fold (fun g v acc -> (g, v) :: acc) h []))
  in
  let p50_us xs = 1e6 *. median (durations xs) in
  let kernel_of (s : Spans.t) =
    match String.index_opt s.detail '/' with
    | Some i -> String.sub s.detail (i + 1) (String.length s.detail - i - 1)
    | None -> s.detail
  in
  let unconstrained = under "compile" "mapper.unconstrained"
  and paged = under "compile" "mapper.paged" in
  let compile_layers =
    sum (durations (unconstrained @ paged @ under "compile" "store.load" @ under "compile" "store.save"))
  in
  let plain_launch = get "plain.launch_s" in
  let farm_run = durations (under "farm.run" "farm.run")
  and replay = durations (under "engine.replay" "engine.replay") in
  let untraced_total = sum (get "plain.compile_s") +. sum farm_run +. sum plain_launch
  and traced_total =
    sum (durations (under "compile" "compile"))
    +. sum (durations (under "farm.run.traced" "farm.run.traced"))
    +. sum (get "traced.launch_s")
  in
  let addup_compile = 100.0 *. compile_layers /. sum (get "plain.compile_s")
  (* medians do not add up; sums over the same launch sequence do *)
  and addup_launch =
    100.0
    *. sum (durations (under "launch" "store.load" @ under "launch" "pagemaster.fold"))
    /. sum plain_launch
  in
  (* Host time is noisy on a shared machine, so the add-up is reported
     with a verdict but does not fail the run. *)
  let within pct = Float.abs (pct -. 100.0) <= 10.0 in
  Printf.printf
    "%d traced passes over %d scenarios in %.1f s\n\
     add-up: mapper + store spans = %.1f%% of the plain cold compiles; load + fold spans = %.1f%% of the plain launches; both within a tenth: %b\n"
    !passes w.scenarios (now () -. start) addup_compile addup_launch
    (within addup_compile && within addup_launch);
  let qwait = Array.of_list (get "farm.queue_wait") in
  Array.sort compare qwait;
  let stats = Binary.stats () in
  let per_cycle name = sum (get name) /. cycles in
  (try Sys.mkdir ".bench_run" 0o755 with Sys_error _ -> ());
  let spans_file = Printf.sprintf ".bench_run/spans-%s-s%d.jsonl" w.name seed in
  Spans.write spans_file ~origin spans;
  Printf.printf "spans written to %s\n" spans_file;
  [
    ("mapper.unconstrained_s", "s", median (per_group unconstrained));
    ("mapper.paged_s", "s", median (per_group paged));
  ]
  @ List.map
      (fun k ->
        ( "mapper.paged_ms." ^ k,
          "ms",
          1000.0 *. median (per_group (List.filter (fun s -> kernel_of s = k) paged)) ))
      Kernels.names
  @ [
      ("mapper.attempts_launched", "count", per_cycle "race.launched");
      ("mapper.attempts_cancelled", "count", per_cycle "race.cancelled");
      ("mapper.polish_runs", "count", per_cycle "race.polish");
      ("mapper.useful_ratio", "ratio", sum (get "race.calls") /. sum (get "race.launched"));
      ("mapper.ii_excess", "cycles", per_cycle "race.ii_excess");
    ]
  @ List.map
      (fun size ->
        let c = config_name (size, 4) in
        ("fig8." ^ c ^ "_pct", "%", mean (get ("fig8." ^ c))))
      fig9_sizes
  @ [
      ("store.save_us_p50", "us", p50_us (under "compile" "store.save"));
      ("store.load_us_p50", "us", p50_us (under "launch" "store.load"));
      ("store.bytes", "bytes", mean (get "store.bytes"));
      ("store.rejects", "count", float_of_int !store_rejects);
      ("binary.disk_hits", "count", float_of_int stats.disk_hits /. cycles);
      ("binary.compiles", "count", float_of_int stats.compiles /. cycles);
      ("pagemaster.fold_us_p50", "us", p50_us (under "launch" "pagemaster.fold"));
      ("pagemaster.pe_exact_ratio", "ratio", float_of_int !exact_folds /. float_of_int !folds);
      ("os.fig9_s", "s", median (per_group (under "fig9" "experiments.fig9")));
      ("os.fig9_transformations", "count", per_cycle "fig9.transformations");
      ("os.fig9_stalls", "count", per_cycle "fig9.stalls");
    ]
  @ List.map
      (fun size ->
        ( Printf.sprintf "fig9.%dx%d.p4_gain_pct" size size,
          "%",
          mean (get (Printf.sprintf "fig9.%dx%d" size size)) ))
      fig9_sizes
  @ [
      ("farm.run_s", "s", median farm_run);
      ("farm.epochs", "count", per_cycle "farm.epochs");
      ("farm.coordinator_s", "s", median (List.map2 ( -. ) farm_run replay));
      ("farm.queue_wait_p50_cycles", "cycles", nearest_rank qwait 500);
      ("farm.queue_wait_p99_cycles", "cycles", nearest_rank qwait 990);
      ("farm.refused", "count", sum (get "farm.refused"));
      ("farm.imbalance", "ratio", mean (get "farm.imbalance"));
      ("engine.replay_s", "s", median replay);
      ("engine.events", "count", per_cycle "engine.events");
      ("engine.transformations", "count", per_cycle "engine.transformations");
      ("engine.stalls", "count", per_cycle "engine.stalls");
      ("alloc.decisions", "count", per_cycle "alloc.decisions");
      ("alloc.denials", "count", per_cycle "alloc.denials");
      ("alloc.pages_rewritten", "count", per_cycle "alloc.pages_rewritten");
      ("os.reshape_cycles", "cycles", per_cycle "os.reshape_cycles");
      ("os.queueing_cycles", "cycles", per_cycle "os.queueing_cycles");
      ("os.execution_cycles", "cycles", per_cycle "os.execution_cycles");
      ("os.page_utilization", "ratio", mean (get "os.page_utilization"));
      ( "trace.overhead_pct",
        "%",
        100.0 *. (traced_total -. untraced_total) /. untraced_total );
      ("addup.compile_pct", "%", addup_compile);
      ("addup.launch_pct", "%", addup_launch);
    ]

(* ----- set-up, output, command line ----- *)

(* Set-up is what a deployment does before its first request: install
   a fresh store and cold-compile its fabric configs into it (at the
   first scenario seed), on one domain, before the run's pool exists.  It
   is timed between two calibrations, repeated 3 times and the median
   reported; the first repetition also pays the process's heap growth. *)
let setup w ~seed =
  Pool.with_pool ~domains:1 (fun pool ->
      median
        (List.init 3 (fun _ ->
             with_fresh_store (fun st ->
                 let before = calibrate () in
                 let _, t =
                   timed (fun () ->
                       Cgra_store.install st;
                       Binary.clear_cache ();
                       compile_plain ~pool ~seed w.configs)
                 in
                 scaled ~before ~after:(calibrate ()) t))))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let print_result metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-32s %16.4f %s\n" name v unit)
    metrics;
  let number v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "a metric is not a finite number"
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v)
              unit)
          metrics))

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline usage;
      exit 2
  | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
  | Some w -> (
      run_dir :=
        Printf.sprintf ".bench_run/%s-s%d-t%d-%d" w.name !seed !trace (Unix.getpid ());
      try
        let width = min 2 (Domain.recommended_domain_count ()) in
        Printf.printf "workload %s, seed %d (scenario seeds %d..%d), pool width %d\n%!"
          w.name !seed (!seed * seed_stride) ((!seed * seed_stride) + w.scenarios - 1)
          width;
        let metrics =
          if !trace = 1 then run_traced w ~width ~seed:!seed ~seconds:!seconds
          else
            let setup_s = setup w ~seed:(!seed * seed_stride) in
            let e2e = run_untraced w ~width ~seed:!seed ~seconds:!seconds in
            [
              ("setup_s", "s", setup_s);
              ("peak_rss_mb", "MB", peak_rss_mb ());
              ( "passed_pct",
                "%",
                100.0 *. float_of_int (!attempted - !failed) /. float_of_int !attempted );
            ]
            @ e2e
        in
        rm_rf !run_dir;
        Printf.printf "checks: %d attempted, %d failed\n" !attempted !failed;
        List.iter (fun f -> prerr_endline ("check failed: " ^ f)) (List.rev !failures);
        print_result metrics
      with e ->
        rm_rf !run_dir;
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        exit 1)
