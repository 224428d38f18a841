(* The farm front end: seeded determinism at any pool width, admission
   properties, the golden-pinned farm_* stream, and the differential
   cross-checks between the front end's accounting and what the trace
   layer reconstructs. *)

module T = Cgra_trace.Trace
module Export = Cgra_trace.Export
module Hist = Cgra_prof.Metrics.Hist
open Cgra_farm

let small_params =
  {
    Farm.default_params with
    fleet = [ { Farm.size = 4; page_pes = 4 }; { Farm.size = 6; page_pes = 4 } ];
    n_tenants = 2;
    n_requests = 12;
    offered_load = 2.0;
    seed = 42;
  }

let run_ok ?pool ?traced p =
  match Farm.run ?pool ?traced p with
  | Ok r -> r
  | Error e -> Alcotest.failf "Farm.run: %s" e

(* ---------- seeded determinism at any -j ---------- *)

(* The pool only races suite compiles; the event loop is sequential.
   [clamp:false] keeps the requested width even on single-core machines,
   so the compiles genuinely race across domains — the byte-compare then
   proves the race never leaks into a report or a trace. *)
let test_determinism_across_widths () =
  let surface width =
    Cgra_util.Pool.with_pool ~clamp:false ~domains:width (fun pool ->
        let r = run_ok ~pool ~traced:true Farm.default_params in
        (Farm.render ~log:true r, Export.jsonl r.Farm.farm_events))
  in
  let text1, jsonl1 = surface 1 in
  List.iter
    (fun width ->
      let text, jsonl = surface width in
      Alcotest.(check string)
        (Printf.sprintf "render + retirement log byte-identical at -j %d" width)
        text1 text;
      Alcotest.(check string)
        (Printf.sprintf "farm_* stream byte-identical at -j %d" width)
        jsonl1 jsonl)
    [ 2; 4 ]

let test_same_seed_same_run () =
  let r1 = run_ok small_params in
  let r2 = run_ok small_params in
  Alcotest.(check string) "byte-identical report" (Farm.render ~log:true r1)
    (Farm.render ~log:true r2);
  Alcotest.(check (list (pair (pair int int) (pair int (float 0.0)))))
    "identical retirement log"
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) r1.Farm.log)
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) r2.Farm.log)

let test_different_seed_different_run () =
  let r1 = run_ok small_params in
  let r2 = run_ok { small_params with seed = 43 } in
  Alcotest.(check bool) "different arrivals" false (r1.Farm.log = r2.Farm.log)

(* ---------- admission properties ---------- *)

(* The stream monitor and the report-conservation checks hold over a
   spread of seeded random cases (mixed fleets, loads, bounds,
   policies): queue depth never exceeds the bound, admits pop the
   tenant's FIFO head, no admitted request is dropped, in-flight stays
   under max_resident, retired + rejected = offered. *)
let test_admission_properties () =
  let o = Cgra_util.Corpus.run Farm_fuzz.harness ~seeds:(List.init 10 Fun.id) in
  Alcotest.(check int) "cases" 10 o.cases;
  Alcotest.(check (list string)) "all invariants hold" [] o.failures

(* The exact-time dispatch rule is not vacuous: a dispatch moved off
   every arrival and retire time (what quantizing dispatch to a sync
   boundary would do) is reported. *)
let test_exact_time_rule_catches_deferral () =
  let r = run_ok small_params in
  Alcotest.(check (list string)) "clean run passes" [] (Farm_fuzz.check_report r);
  let q =
    List.find (fun (q : Farm.request) -> not (Float.is_nan q.Farm.dispatched))
      r.Farm.requests
  in
  q.Farm.dispatched <- q.Farm.dispatched +. 0.5;
  Alcotest.(check bool) "deferred dispatch reported" true
    (List.exists
       (fun m ->
         String.starts_with ~prefix:(Printf.sprintf "r%d dispatched at" q.Farm.rid) m)
       (Farm_fuzz.check_report r))

(* Non-finite numbers are validation errors, not crashes or hangs: a NaN
   or infinite load would trip an assertion in the arrival generator,
   and a NaN reconfig cost would post events at NaN times that the loop
   never drains. *)
let test_non_finite_params_rejected () =
  List.iter
    (fun (what, p) ->
      match Farm.run p with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [
      ("nan load", { small_params with offered_load = Float.nan });
      ("infinite load", { small_params with offered_load = Float.infinity });
      ("nan reconfig cost", { small_params with reconfig_cost = Float.nan });
      ( "infinite reconfig cost",
        { small_params with reconfig_cost = Float.infinity } );
    ]

(* Past 2^53 cycles a float no longer resolves one cycle and a kernel's
   remaining time rounds to nothing, so an engine would post the same
   event forever.  A run that could get there is refused before its loop
   starts — at a tiny load, or one whose arrivals overflow to infinity —
   while a load whose run ends just short of 2^53 still runs. *)
let test_virtual_time_bound () =
  let at offered_load = { Farm.default_params with n_requests = 40; offered_load } in
  List.iter
    (fun load ->
      match Farm.run (at load) with
      | Ok _ -> Alcotest.failf "load %g accepted" load
      | Error _ -> ())
    [ 1e-14; 1e-310 ];
  let r = run_ok (at 3.3e-13) in
  Alcotest.(check int) "every request retires" 40 r.Farm.retired;
  Alcotest.(check bool) "within 2^53 cycles" true (r.Farm.makespan < 0x1p53)

let test_rejections_respect_bound () =
  (* a tight bound under heavy load must reject, and still conserve *)
  let p =
    { small_params with offered_load = 8.0; queue_bound = 1; max_resident = 1 }
  in
  let r = run_ok ~traced:true p in
  Alcotest.(check bool) "some rejections" true (r.Farm.rejected > 0);
  Alcotest.(check int) "conservation" r.Farm.offered
    (r.Farm.retired + r.Farm.rejected);
  Alcotest.(check (list string)) "stream invariants" []
    (Farm_fuzz.monitor ~queue_bound:1 ~max_resident:1 r.Farm.farm_events);
  Alcotest.(check (list string)) "report invariants" []
    (Farm_fuzz.check_report r)

(* The stream monitor compares queue depth with the bound without
   adding to the bound, so the largest bound there is reads as no bound
   at all rather than wrapping into a false defect on every request. *)
let test_unbounded_queue_monitor () =
  let p = { small_params with queue_bound = max_int } in
  let r = run_ok ~traced:true p in
  Alcotest.(check int) "nothing rejected" 0 r.Farm.rejected;
  Alcotest.(check (list string)) "every check holds" [] (Farm_fuzz.check r)

(* ---------- golden farm_* stream ---------- *)

(* The small fixed-seed run's JSONL stream is pinned by digest: any
   change to arrival generation, admission order, dispatch policy, the
   shard engines, or the export encoding moves it.  If the change is
   intentional, print the stream and update. *)
let golden_stream_digest = "39c19f2dc8251781d9787968e9ef1aef"

let test_golden_stream () =
  let r = run_ok ~traced:true small_params in
  let jsonl = Export.jsonl r.Farm.farm_events in
  Alcotest.(check string) "golden farm_* JSONL digest" golden_stream_digest
    (Digest.to_hex (Digest.string jsonl));
  (* and the stream round-trips through the JSONL reader *)
  match Export.of_jsonl jsonl with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok events ->
      Alcotest.(check string) "round-trip re-encodes identically" jsonl
        (Export.jsonl events)

(* ---------- pinned outputs: every byte a run produces ---------- *)

(* The differential oracle for speed work on the coordinator and the
   shard engines: each case's digest covers the report with its
   retirement log, the stats report, the farm_* stream and every
   shard's OS stream, and the digests were recorded before any of that
   code was rewritten.  A faster loop must reproduce them exactly. *)
let output_digest (r : Farm.report) =
  let hex s = Digest.to_hex (Digest.string s) in
  hex
    (String.concat " "
       (hex (Farm.render ~log:true r)
       :: hex (Farm.render_stats r)
       :: hex (Export.jsonl r.Farm.farm_events)
       :: List.map (fun evs -> hex (Export.jsonl evs)) r.Farm.shard_events))

(* Small fleets over every policy pair, reconfig costs 0-100, queue
   bounds and max_resident from 1 to 6 and loads up to 4, so requests
   queue, get rejected and get deferred — which the benchmark's
   unbounded open loops never do.  Suite compiles dominate a case's
   cost, so the compile seed takes two values (the cost-aware tests
   compile the same suites) and every other field varies. *)
let oracle_corpus n =
  let module R = Cgra_util.Rng in
  let rng = R.create ~seed:15 in
  (* one [let] per draw: record fields evaluate in no fixed order *)
  List.init n (fun _ ->
      let fleet =
        List.init (R.int_in rng 1 3) (fun _ ->
            { Farm.size = R.choose rng [| 4; 6; 8 |]; page_pes = 4 })
      in
      let n_tenants = R.int_in rng 1 4 in
      let n_requests = R.int_in rng 10 60 in
      let offered_load = 0.25 +. R.float rng 3.75 in
      let queue_bound = R.int_in rng 1 6 in
      let max_resident = R.int_in rng 1 6 in
      let seed = R.int rng 2 in
      let policy =
        R.choose rng Cgra_core.Allocator.[| Halving; Repack_equal; Cost_halving |]
      in
      let reconfig_cost = float_of_int (R.int_in rng 0 100) in
      let dispatch = R.choose rng [| Farm.Least_loaded; Farm.Cost_aware |] in
      { Farm.fleet; n_tenants; n_requests; offered_load; queue_bound;
        max_resident; seed; policy; reconfig_cost; dispatch })

let corpus_digest = "18bcb90c4f69118bc4ad592887caa78f"

let test_pinned_corpus () =
  let cases =
    List.map
      (fun p ->
        let r = run_ok ~traced:true p in
        let queued =
          List.length
            (List.filter
               (fun (q : Farm.request) -> q.Farm.dispatched > q.Farm.arrival)
               r.Farm.requests)
        in
        (output_digest r, queued, r.Farm.rejected))
      (oracle_corpus 300)
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cases in
  Alcotest.(check (pair int int)) "queued dispatches, rejections" (2703, 1108)
    (sum (fun (_, q, _) -> q), sum (fun (_, _, j) -> j));
  Alcotest.(check string) "corpus digest" corpus_digest
    (Digest.to_hex
       (Digest.string (String.concat " " (List.map (fun (d, _, _) -> d) cases))))

let big_digests =
  [
    ((1.0, Farm.Least_loaded, 0.0), "f1a889c747ea2c0f38222bc47b260a03");
    ((1.25, Farm.Cost_aware, 100.0), "8375917fa0195861aa6bb78784d5b8ce");
    ((2.0, Farm.Cost_aware, 100.0), "aa2da933edde3c309207118d82f9e55b");
    ((3.0, Farm.Cost_aware, 100.0), "757a8991e8418dd10d77d0b6e1cebdde");
  ]

let test_pinned_big_fleet () =
  List.iter
    (fun ((offered_load, dispatch, reconfig_cost), digest) ->
      let r =
        run_ok ~traced:true
          { Farm.big_params with offered_load; dispatch; reconfig_cost }
      in
      Alcotest.(check string)
        (Printf.sprintf "big fleet, load %g, %s, reconfig cost %g" offered_load
           (Farm.dispatch_name dispatch) reconfig_cost)
        digest (output_digest r))
    big_digests

(* ---------- differential: spans vs front-end accounting ---------- *)

let test_span_latency_equals_accounting () =
  let r = run_ok ~traced:true small_params in
  let by_rid = Hashtbl.create 16 in
  List.iter (fun (q : Farm.request) -> Hashtbl.replace by_rid q.Farm.rid q)
    r.Farm.requests;
  let retires =
    List.filter_map
      (fun (e : T.event) ->
        match e.T.payload with
        | T.Farm_retire x -> Some (e.T.time, x.req, x.latency)
        | _ -> None)
      r.Farm.farm_events
  in
  Alcotest.(check int) "one retire span per retired request" r.Farm.retired
    (List.length retires);
  List.iter
    (fun (time, rid, latency) ->
      let q = Hashtbl.find by_rid rid in
      Alcotest.check (Alcotest.float 1e-9)
        (Printf.sprintf "r%d retire time = accounting" rid)
        q.Farm.retired_at time;
      Alcotest.check (Alcotest.float 1e-9)
        (Printf.sprintf "r%d span latency = accounting" rid)
        (q.Farm.retired_at -. q.Farm.arrival)
        latency)
    retires

(* ---------- differential: shard streams replay and verify ---------- *)

let test_shard_streams_verify () =
  let r = run_ok ~traced:true small_params in
  List.iter2
    (fun (sr : Farm.shard_report) events ->
      Alcotest.(check (list string))
        (Printf.sprintf "shard %d OS invariants" sr.Farm.s_index)
        []
        (Cgra_verify.Os_fuzz.monitor events);
      Alcotest.(check (list string))
        (Printf.sprintf "shard %d replay reproduces aggregates" sr.Farm.s_index)
        []
        (Cgra_verify.Os_fuzz.replay_check sr.Farm.s_os events))
    r.Farm.shard_reports r.Farm.shard_events

(* ---------- cost-aware dispatch under overload ---------- *)

(* The committed-benchmark claim, as a test: at 2x load with a real
   reconfiguration cost, pricing reshape cycles against the shard's next
   wake-up must cut the p99 latency without giving back throughput.  On
   the small default fleet the makespan — hence the throughput — is set
   by a single request that lands on the 4x4 shard, so only the p99
   clause is checked there; both clauses are checked on the fleet the
   claim stands for, [Farm.big_params] at the same load and cost, over
   three seeds.  Deterministic (fixed seeds, virtual clock), so exact
   comparison is safe. *)
let test_cost_aware_improves_overload_tail () =
  let pair (p : Farm.params) =
    let p =
      { p with
        offered_load = 2.0;
        reconfig_cost = 100.0;
        policy = Cgra_core.Allocator.Cost_halving }
    in
    ( run_ok { p with dispatch = Farm.Least_loaded },
      run_ok { p with dispatch = Farm.Cost_aware } )
  in
  let p99_improves what (r_ll, r_ca) =
    Alcotest.(check bool)
      (Printf.sprintf "%s: p99 improves (%.0f < %.0f)" what
         r_ca.Farm.latency.Hist.p99 r_ll.Farm.latency.Hist.p99)
      true
      (r_ca.Farm.latency.Hist.p99 < r_ll.Farm.latency.Hist.p99)
  in
  p99_improves "default fleet" (pair Farm.default_params);
  List.iter
    (fun seed ->
      let ((r_ll, r_ca) as rs) = pair { Farm.big_params with seed } in
      let what = Printf.sprintf "big fleet, seed %d" seed in
      p99_improves what rs;
      Alcotest.(check bool)
        (Printf.sprintf "%s: throughput holds (%.3f >= %.3f)" what
           r_ca.Farm.throughput r_ll.Farm.throughput)
        true
        (r_ca.Farm.throughput >= r_ll.Farm.throughput))
    [ 0; 1; 2 ]

let test_cost_aware_zero_cost_degenerates () =
  (* at reconfig_cost = 0 the deferral predicate is always affordable,
     so Cost_aware must reproduce Least_loaded byte for byte *)
  let base = { small_params with reconfig_cost = 0.0 } in
  let r_ll = run_ok { base with dispatch = Farm.Least_loaded } in
  let r_ca = run_ok { base with dispatch = Farm.Cost_aware } in
  (* the params line names the dispatch, so compare the simulated
     surfaces rather than the full render *)
  Alcotest.(check (list (pair (pair int int) (pair int (float 0.0)))))
    "identical retirement log at zero cost"
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) r_ll.Farm.log)
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) r_ca.Farm.log);
  Alcotest.check (Alcotest.float 0.0) "identical makespan" r_ll.Farm.makespan
    r_ca.Farm.makespan

let test_served_counts_conserve () =
  let r = run_ok small_params in
  let served =
    List.fold_left (fun a (sr : Farm.shard_report) -> a + sr.Farm.s_served) 0
      r.Farm.shard_reports
  in
  Alcotest.(check int) "shard served sums to retired" r.Farm.retired served

let () =
  Alcotest.run "farm"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical at -j 1/2/4" `Quick
            test_determinism_across_widths;
          Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
          Alcotest.test_case "different seed, different run" `Quick
            test_different_seed_different_run;
        ] );
      ( "admission",
        [
          Alcotest.test_case "properties over seeded cases" `Quick
            test_admission_properties;
          Alcotest.test_case "tight bound rejects, conserves" `Quick
            test_rejections_respect_bound;
          Alcotest.test_case "max_int bound checks clean" `Quick
            test_unbounded_queue_monitor;
          Alcotest.test_case "exact-time rule catches deferral" `Quick
            test_exact_time_rule_catches_deferral;
          Alcotest.test_case "non-finite params rejected" `Quick
            test_non_finite_params_rejected;
          Alcotest.test_case "runs that could pass 2^53 cycles refused" `Quick
            test_virtual_time_bound;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pinned farm_* stream" `Quick test_golden_stream;
          Alcotest.test_case "pinned outputs, small-fleet corpus" `Quick
            test_pinned_corpus;
          Alcotest.test_case "pinned outputs, big fleet" `Quick
            test_pinned_big_fleet;
        ] );
      ( "cost-aware",
        [
          Alcotest.test_case "improves overload tail, holds throughput" `Quick
            test_cost_aware_improves_overload_tail;
          Alcotest.test_case "degenerates at zero cost" `Quick
            test_cost_aware_zero_cost_degenerates;
        ] );
      ( "differential",
        [
          Alcotest.test_case "span latency = accounting" `Quick
            test_span_latency_equals_accounting;
          Alcotest.test_case "shard streams verify + replay" `Quick
            test_shard_streams_verify;
          Alcotest.test_case "served counts conserve" `Quick
            test_served_counts_conserve;
        ] );
    ]
