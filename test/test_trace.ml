(* The tracing subsystem's contract, from the bottom up: the hand-rolled
   JSON round-trips, a disabled sink is silent, a live trace is a
   byte-stable golden for a fixed seed, the Chrome export is valid JSON
   with every event kind represented, the invariant monitor rejects
   corrupted streams, and — the headline — Replay folds the event stream
   back into the exact result record the simulator returned, across the
   whole Fig. 9 grid. *)

open Cgra_arch
open Cgra_core
module T = Cgra_trace.Trace
module Json = Cgra_trace.Json
module Export = Cgra_trace.Export
module Replay = Cgra_trace.Replay

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let suite_for a =
  match Binary.compile_suite a with
  | Ok s -> s
  | Error e -> Alcotest.failf "compile_suite: %s" e

let suite_4x4_p4 = lazy (suite_for (arch 4 4))

let traced_run ?policy ?reconfig_cost ~seed ~n_threads ~need ~mode () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed ~n_threads ~cgra_need:need ~suite () in
  let trace = T.make () in
  let r =
    Os_sim.run ?policy ?reconfig_cost ~trace
      { Os_sim.suite; threads; total_pages = 4; mode }
  in
  (r, T.events trace)

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("b", Json.Str "x\"y\n\t\\z");
        ("c", Json.Arr [ Json.Null; Json.Bool true; Json.Num (-0.125) ]);
        ("d", Json.Obj []);
        ("e", Json.Num 1e300);
        ("f", Json.Num 0.1);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse: %s" e

let test_json_integral_floats () =
  Alcotest.(check string) "integers stay integral" "[0,1,-7,9007199254740992]"
    (Json.to_string
       (Json.Arr
          [ Json.num_of_int 0; Json.num_of_int 1; Json.num_of_int (-7);
            Json.Num 9007199254740992.0 ]))

let test_json_rejects_garbage () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":1,}";
  bad "[1] trailing";
  bad "nul";
  bad "\"unterminated"

let test_json_unicode_escape () =
  match Json.parse "\"a\\u0041\\n\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "decoded" "aA\n" s
  | Ok _ -> Alcotest.fail "wrong constructor"
  | Error e -> Alcotest.failf "parse: %s" e

(* ---------- the sink ---------- *)

let test_null_trace_is_silent () =
  let t = T.null in
  Alcotest.(check bool) "disabled" false (T.enabled t);
  T.emit t (T.Mark { name = "x"; detail = "y" });
  T.set_clock t 42.0;
  Alcotest.(check int) "no events" 0 (T.n_events t)

let test_tracing_does_not_change_results () =
  let untraced, _ =
    let suite = Lazy.force suite_4x4_p4 in
    let threads =
      Workload.generate ~seed:3 ~n_threads:8 ~cgra_need:0.875 ~suite ()
    in
    (Os_sim.run { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi }, ())
  in
  let traced, _ =
    traced_run ~seed:3 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi ()
  in
  Alcotest.(check bool) "identical result records" true (untraced = traced)

let test_counters_and_spans () =
  (* a counter is an event like any other, recorded in emission order *)
  let t = T.make () in
  T.emit t (T.Counter { name = "c"; value = 2.0 });
  (try T.with_span t "s" (fun () -> failwith "boom") with Failure _ -> ());
  match T.events t with
  | [ { T.payload = T.Counter { name = "c"; value = 2.0 }; _ };
      { T.payload = T.Span_begin { name = "s" }; _ };
      { T.payload = T.Span_end { name = "s" }; _ } ] ->
      ()
  | es ->
      Alcotest.failf "counter lost or span not closed on exception (%d events)"
        (List.length es)

(* ---------- golden determinism ---------- *)

let test_jsonl_golden () =
  let _, ev1 = traced_run ~seed:0 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi () in
  let _, ev2 = traced_run ~seed:0 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi () in
  let j1 = Export.jsonl ev1 and j2 = Export.jsonl ev2 in
  Alcotest.(check string) "byte-identical across runs" j1 j2;
  let lines = String.split_on_char '\n' j1 in
  Alcotest.(check string) "golden first line"
    "{\"seq\":0,\"t\":0,\"kind\":\"run_begin\",\"mode\":\"multi\",\
     \"total_pages\":4,\"threads\":8,\"policy\":\"halving\",\"reconfig_cost\":0,\
     \"rows\":4,\"mem_ports\":2}"
    (List.hd lines);
  let last =
    List.fold_left (fun acc l -> if l = "" then acc else l) "" lines
  in
  Alcotest.(check bool) "last event is run_end" true
    (contains ~sub:"\"kind\":\"run_end\"" last)

let test_meld_violation_golden () =
  (* a meld rejection is itself byte-stable: exactly one violation mark
     inside the checker's span, with a fixed rendering *)
  let a = arch 4 4 in
  let g =
    Cgra_dfg.Graph.create ~name:"ld"
      ~ops:[ Cgra_dfg.Op.Load { array = "x"; offset = 0; stride = 1 } ]
      ~edges:[]
  in
  let m =
    {
      Cgra_mapper.Mapping.arch = a;
      graph = g;
      ii = 1;
      placements =
        [| Some { Cgra_mapper.Mapping.pe = Coord.make ~row:0 ~col:0; time = 0 } |];
      routes = [];
      paged = false;
    }
  in
  let trace = T.make () in
  (match Cgra_verify.Meld.check_mappings ~trace [ m; m ] with
  | Ok _ -> Alcotest.fail "duplicated resident must be rejected"
  | Error _ -> ());
  Alcotest.(check string) "golden meld rejection"
    "{\"seq\":0,\"t\":0,\"kind\":\"span_begin\",\"name\":\"meld.check\"}\n\
     {\"seq\":1,\"t\":0,\"kind\":\"mark\",\"name\":\"meld.violation\",\
     \"detail\":\"disjoint: residents 0 and 1 both occupy PE (0,0)\"}\n\
     {\"seq\":2,\"t\":0,\"kind\":\"span_end\",\"name\":\"meld.check\"}\n"
    (Export.jsonl (T.events trace))

let test_sched_race_golden () =
  (* the scheduler's race telemetry is byte-stable: the sequential ladder
     for mpeg/paged on 4x4 launches exactly 8 of the 3280 candidates (80
     per II: 16 bus-aware attempts ahead of the 64-attempt legacy replay)
     before bus attempt (1,7) wins at the MII, cancelling the rest, then
     polishes 8x; the searches line counts the best-first routing searches
     of all 16 attempts *)
  let a = arch 4 4 in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let trace = T.make () in
  (match Cgra_mapper.Scheduler.map ~trace Cgra_mapper.Scheduler.Paged a k.graph with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "map: %s" e);
  Alcotest.(check string) "golden race telemetry"
    "{\"seq\":0,\"t\":0,\"kind\":\"span_begin\",\"name\":\"sched.race\"}\n\
     {\"seq\":1,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.candidates\",\"value\":3280}\n\
     {\"seq\":2,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.launched\",\"value\":8}\n\
     {\"seq\":3,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.searches\",\"value\":34}\n\
     {\"seq\":4,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.cancelled\",\"value\":3272}\n\
     {\"seq\":5,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.polish\",\"value\":8}\n\
     {\"seq\":6,\"t\":0,\"kind\":\"mark\",\"name\":\"sched.race.winner\",\"detail\":\"ii=1 attempt=7\"}\n\
     {\"seq\":7,\"t\":0,\"kind\":\"span_end\",\"name\":\"sched.race\"}\n"
    (Export.jsonl (T.events trace))

let test_sched_shared_golden () =
  (* sobel's unconstrained search on 4x4/p2 is shared by the same call on
     4x4/p4: the searched call's stream is the race span, its counters and
     winner, and the shared call emits only one mark naming that winner *)
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let traced a =
    let trace = T.make () in
    (match Cgra_mapper.Scheduler.map ~trace Cgra_mapper.Scheduler.Unconstrained a k.graph with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "map: %s" e);
    Export.jsonl (T.events trace)
  in
  Cgra_mapper.Scheduler.clear_shared ();
  Alcotest.(check string) "golden searched call"
    "{\"seq\":0,\"t\":0,\"kind\":\"span_begin\",\"name\":\"sched.race\"}\n\
     {\"seq\":1,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.candidates\",\"value\":3280}\n\
     {\"seq\":2,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.launched\",\"value\":101}\n\
     {\"seq\":3,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.searches\",\"value\":1907}\n\
     {\"seq\":4,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.cancelled\",\"value\":3179}\n\
     {\"seq\":5,\"t\":0,\"kind\":\"counter\",\"name\":\"sched.race.polish\",\"value\":0}\n\
     {\"seq\":6,\"t\":0,\"kind\":\"mark\",\"name\":\"sched.race.winner\",\"detail\":\"ii=3 attempt=20\"}\n\
     {\"seq\":7,\"t\":0,\"kind\":\"span_end\",\"name\":\"sched.race\"}\n"
    (traced (arch 4 2));
  Alcotest.(check string) "golden shared call"
    "{\"seq\":0,\"t\":0,\"kind\":\"mark\",\"name\":\"sched.race.shared\",\"detail\":\"ii=3 attempt=20\"}\n"
    (traced (arch 4 4))

let test_jsonl_lines_parse () =
  let _, events = traced_run ~seed:1 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi () in
  List.iteri
    (fun i line ->
      if line <> "" then
        match Json.parse line with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "line %d: %s" (i + 1) e)
    (String.split_on_char '\n' (Export.jsonl events))

(* ---------- Chrome export ---------- *)

let test_chrome_validates_with_kinds () =
  let _, events = traced_run ~seed:0 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi () in
  let doc = Export.chrome events in
  match Json.parse doc with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok v -> (
      match Json.member "traceEvents" v with
      | Some (Json.Arr entries) ->
          let cats =
            List.sort_uniq compare
              (List.filter_map
                 (fun e -> Option.bind (Json.member "cat" e) Json.to_str)
                 entries)
          in
          if List.length cats < 6 then
            Alcotest.failf "only %d event kinds in the Chrome trace: %s"
              (List.length cats) (String.concat ", " cats);
          Alcotest.(check bool) "entries present" true (List.length entries > 50)
      | Some _ | None -> Alcotest.fail "no traceEvents array")

(* ---------- the invariant monitor ---------- *)

let test_monitor_accepts_real_runs () =
  let _, events = traced_run ~seed:2 ~n_threads:8 ~need:0.875 ~mode:Os_sim.Multi () in
  Alcotest.(check (list string)) "clean stream" []
    (Cgra_verify.Os_fuzz.monitor events)

let test_monitor_rejects_duplicate_waiter () =
  let ev seq time payload = { T.seq; time; payload } in
  let stream =
    [
      ev 0 0.0
        (T.Run_begin
           { mode = "multi"; total_pages = 4; n_threads = 2; policy = "halving";
             reconfig_cost = 0.0; rows = 4; mem_ports = 2 });
      ev 1 1.0 (T.Kernel_stall { thread = 7; kernel = "sor"; queue_depth = 1 });
      ev 2 2.0 (T.Kernel_stall { thread = 7; kernel = "sor"; queue_depth = 2 });
    ]
  in
  Alcotest.(check bool) "duplicate waiter caught" true
    (Cgra_verify.Os_fuzz.monitor stream <> [])

let test_monitor_rejects_overlap () =
  let ev seq time payload = { T.seq; time; payload } in
  let grant seq time thread base len =
    ev seq time
      (T.Kernel_grant
         { thread; kernel = "sor"; range = { T.base; len }; shrunk = false;
           cost = 0.0; rate = 4.0 })
  in
  let stream =
    [
      ev 0 0.0
        (T.Run_begin
           { mode = "multi"; total_pages = 4; n_threads = 2; policy = "halving";
             reconfig_cost = 0.0; rows = 4; mem_ports = 2 });
      grant 1 0.0 0 0 3;
      grant 2 1.0 1 2 2;
    ]
  in
  Alcotest.(check bool) "overlapping grants caught" true
    (Cgra_verify.Os_fuzz.monitor stream <> [])

let test_monitor_rejects_bad_occupancy () =
  let ev seq time payload = { T.seq; time; payload } in
  let stream =
    [
      ev 0 0.0
        (T.Run_begin
           { mode = "multi"; total_pages = 4; n_threads = 1; policy = "halving";
             reconfig_cost = 0.0; rows = 4; mem_ports = 2 });
      ev 1 0.0
        (T.Kernel_grant
           { thread = 0; kernel = "sor"; range = { T.base = 0; len = 2 };
             shrunk = false; cost = 0.0; rate = 4.0 });
      ev 2 8.0 (T.Occupancy { thread = 0; pages = 4; elapsed = 8.0 });
    ]
  in
  Alcotest.(check bool) "occupancy/allocation mismatch caught" true
    (Cgra_verify.Os_fuzz.monitor stream <> [])

(* ---------- replay: the exact witness ---------- *)

let check_point ?policy ?reconfig_cost ~seed ~n_threads ~need mode =
  let r, events = traced_run ?policy ?reconfig_cost ~seed ~n_threads ~need ~mode () in
  match
    Cgra_verify.Os_fuzz.monitor events
    @ Cgra_verify.Os_fuzz.replay_check r events
  with
  | [] -> ()
  | es ->
      Alcotest.failf "%d threads, need %g, %s: %s" n_threads need
        (match mode with Os_sim.Single -> "single" | Os_sim.Multi -> "multi")
        (String.concat "; " es)

let test_replay_exact_fig9_grid () =
  List.iter
    (fun need ->
      List.iter
        (fun n_threads ->
          List.iter
            (fun mode -> check_point ~seed:0 ~n_threads ~need mode)
            [ Os_sim.Single; Os_sim.Multi ])
        [ 1; 2; 4; 8; 16 ])
    [ 0.5; 0.75; 0.875 ]

let test_replay_exact_with_reconfig_cost () =
  List.iter
    (fun reconfig_cost ->
      check_point ~reconfig_cost ~seed:0 ~n_threads:8 ~need:0.875 Os_sim.Multi)
    [ 7.0; 250.0 ];
  check_point ~policy:Allocator.Repack_equal ~reconfig_cost:7.0 ~seed:0
    ~n_threads:8 ~need:0.875 Os_sim.Multi

let test_wait_statistics () =
  let r, events = traced_run ~seed:0 ~n_threads:16 ~need:0.875 ~mode:Os_sim.Multi () in
  let ws = Replay.wait_statistics events in
  Alcotest.(check bool) "contended run has waits" true
    (r.Os_sim.stalls > 0 && ws.Replay.n > 0);
  Alcotest.(check bool) "served at most once per stall" true
    (ws.Replay.n <= r.Os_sim.stalls);
  Alcotest.(check bool) "ordered moments" true
    (ws.Replay.mean <= ws.Replay.max && ws.Replay.p95 <= ws.Replay.max)

let test_os_fuzz_corpus () =
  let o =
    Cgra_util.Corpus.run Cgra_verify.Os_fuzz.harness
      ~seeds:(List.init 10 (fun i -> i))
  in
  Alcotest.(check (list string)) "fixed 10-seed corpus is clean" [] o.failures;
  Alcotest.(check int) "two modes per seed" 20 (Cgra_util.Corpus.count o "runs");
  Alcotest.(check bool) "events were monitored" true
    (Cgra_util.Corpus.count o "events" > 1000)

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "integral floats" `Quick test_json_integral_floats;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null is silent" `Quick test_null_trace_is_silent;
          Alcotest.test_case "tracing changes nothing" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "counters and spans" `Quick test_counters_and_spans;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "meld violation golden" `Quick
            test_meld_violation_golden;
          Alcotest.test_case "sched race golden" `Quick test_sched_race_golden;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
          Alcotest.test_case "chrome validates, >= 6 kinds" `Quick
            test_chrome_validates_with_kinds;
          Alcotest.test_case "sched shared golden" `Quick test_sched_shared_golden;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "accepts real runs" `Quick test_monitor_accepts_real_runs;
          Alcotest.test_case "rejects duplicate waiter" `Quick
            test_monitor_rejects_duplicate_waiter;
          Alcotest.test_case "rejects overlap" `Quick test_monitor_rejects_overlap;
          Alcotest.test_case "rejects bad occupancy" `Quick
            test_monitor_rejects_bad_occupancy;
        ] );
      ( "replay",
        [
          Alcotest.test_case "exact on the fig9 grid" `Quick
            test_replay_exact_fig9_grid;
          Alcotest.test_case "exact with reconfig cost" `Quick
            test_replay_exact_with_reconfig_cost;
          Alcotest.test_case "wait statistics" `Quick test_wait_statistics;
          Alcotest.test_case "os fuzz corpus" `Quick test_os_fuzz_corpus;
        ] );
    ]
