(* The observability layer's contract: histogram quantiles are exact at
   bucket edges; a profile report is a deterministic function of the
   trace (golden digests, live == post-hoc JSONL round-trip); stall
   attribution agrees with Replay's independent wait accounting; and the
   bench gate passes its own baselines while failing a row inflated
   beyond tolerance. *)

open Cgra_arch
open Cgra_core
module T = Cgra_trace.Trace
module Export = Cgra_trace.Export
module Replay = Cgra_trace.Replay
module Json = Cgra_trace.Json
module Hist = Cgra_prof.Metrics.Hist
module Analyze = Cgra_prof.Analyze
module Render = Cgra_prof.Render
module Bench_gate = Cgra_prof.Bench_gate

let feq = Alcotest.float 1e-9

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ---------- Hist: quantile exactness at bucket edges ---------- *)

(* Integers 16..31 are each their own bucket lower bound (ex=5 gives
   lower = 16 + sub), so every quantile answer must be exact. *)
let test_hist_exact_at_edges () =
  let h = Hist.create () in
  for v = 16 to 31 do
    Hist.observe h (float_of_int v)
  done;
  Alcotest.(check int) "n" 16 (Hist.count h);
  Alcotest.check feq "min" 16.0 (Hist.min_value h);
  Alcotest.check feq "max" 31.0 (Hist.max_value h);
  Alcotest.check feq "sum" 376.0 (Hist.sum h);
  Alcotest.check feq "mean" 23.5 (Hist.mean h);
  (* nearest rank: p50 -> 8th smallest = 23, p90 -> 15th = 30 *)
  Alcotest.check feq "p50" 23.0 (Hist.quantile h 50.0);
  Alcotest.check feq "p90" 30.0 (Hist.quantile h 90.0);
  Alcotest.check feq "p99" 31.0 (Hist.quantile h 99.0);
  Alcotest.check feq "p100" 31.0 (Hist.quantile h 100.0);
  Alcotest.check feq "p0 clamps to rank 1" 16.0 (Hist.quantile h 0.0)

let test_hist_mid_bucket_error_bound () =
  (* A mid-bucket value reports its bucket lower bound: within the
     documented 6.25% relative error, never above the true value. *)
  let h = Hist.create () in
  Hist.observe h 16.0;
  Hist.observe h 33.0;
  let q = Hist.quantile h 100.0 in
  Alcotest.check feq "bucket lower" 32.0 q;
  Alcotest.(check bool) "under 6.25% relative error" true
    ((33.0 -. q) /. 33.0 < 0.0625);
  (* a lone observation is exact regardless of bucket: the answer clamps
     to the tracked [min, max] *)
  let one = Hist.create () in
  Hist.observe one 33.0;
  Alcotest.check feq "singleton exact via clamp" 33.0 (Hist.quantile one 50.0)

let test_hist_zero_and_negative () =
  let h = Hist.create () in
  Hist.observe h (-5.0);
  Hist.observe h 0.0;
  Hist.observe h 2.0;
  Alcotest.check feq "exact min kept" (-5.0) (Hist.min_value h);
  Alcotest.check feq "low quantile clamps to zero bucket" 0.0
    (Hist.quantile h 1.0);
  Alcotest.check feq "p100" 2.0 (Hist.quantile h 100.0)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "n" 0 (Hist.count h);
  Alcotest.check feq "mean" 0.0 (Hist.mean h);
  Alcotest.check feq "quantile" 0.0 (Hist.quantile h 50.0)

(* ---------- Hist against the hashtable histogram it replaced ---------- *)

(* A verbatim copy of the histogram as it was before its buckets moved
   into an array: one hashtable entry per bucket key, quantiles by
   sorting the keys.  The reference for finite observations. *)
module Reference_hist = struct
  (* Bucket key for v > 0: frexp gives v = m * 2^ex with m in [0.5,1);
     2m-1 in [0,1) selects one of 16 linear sub-buckets, so the key is
     ex*16 + sub and the bucket's lower bound is 2^(ex-1) * (1+sub/16).
     Both maps are exact for dyadic values, which is what makes quantile
     answers exact at bucket edges (integers, cycle counts). *)

  type t = {
    buckets : (int, int ref) Hashtbl.t;
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let zero_key = min_int

  let create () =
    { buckets = Hashtbl.create 16; n = 0; total = 0.0; vmin = infinity;
      vmax = neg_infinity }

  let bucket_key v =
    if v <= 0.0 then zero_key
    else
      let m, ex = Float.frexp v in
      let sub = int_of_float (Float.floor (((2.0 *. m) -. 1.0) *. 16.0)) in
      let sub = if sub < 0 then 0 else if sub > 15 then 15 else sub in
      (ex * 16) + sub

  let bucket_lower key =
    if key = zero_key then 0.0
    else
      let ex = if key >= 0 then key / 16 else (key - 15) / 16 in
      let sub = key - (ex * 16) in
      Float.ldexp (1.0 +. (float_of_int sub /. 16.0)) (ex - 1)

  let add_bucket t key c =
    match Hashtbl.find_opt t.buckets key with
    | Some r -> r := !r + c
    | None -> Hashtbl.add t.buckets key (ref c)

  let observe t v =
    add_bucket t (bucket_key v) 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.total
  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.vmin
  let max_value t = if t.n = 0 then 0.0 else t.vmax

  let quantile t p =
    if t.n = 0 then 0.0
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
      in
      let keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.buckets [])
      in
      let rec walk cum = function
        | [] -> t.vmax
        | k :: rest ->
            let cum = cum + !(Hashtbl.find t.buckets k) in
            if cum >= rank then bucket_lower k else walk cum rest
      in
      Float.min t.vmax (Float.max t.vmin (walk 0 keys))
    end
end

(* Seeded sequences of zero, negatives, subnormals, integers and values
   from 1e-300 to 1e300, in random order so the bucket array grows
   toward both ends: every reading must equal the reference's bit for
   bit. *)
let test_hist_matches_reference () =
  let module Rng = Cgra_util.Rng in
  let bits = Int64.bits_of_float in
  let ps = [ 0.0; 0.1; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
  let draw rng =
    match Rng.int rng 7 with
    | 0 -> if Rng.bool rng then 0.0 else -0.0
    | 1 -> -.Float.ldexp (1.0 +. Rng.float rng 1.0) (Rng.int_in rng (-20) 40)
    | 2 -> Float.ldexp (Rng.float rng 1.0) (-1022 - Rng.int rng 52)
    | 3 -> float_of_int (Rng.int rng 100_000)
    | 4 -> Float.ldexp (1.0 +. Rng.float rng 1.0) (Rng.int_in rng (-996) 996)
    | 5 -> Rng.choose rng [| 1e-300; 1e300; Float.min_float; Float.max_float |]
    | _ -> Float.ldexp (float_of_int (Rng.int_in rng 1 64)) (Rng.int_in rng (-8) 8)
  in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let h = Hist.create () and r = Reference_hist.create () in
      let check i =
        let same what a b =
          if bits a <> bits b then
            Alcotest.failf "seed %d, after %d observations: %s %h, reference %h"
              seed i what a b
        in
        if Hist.count h <> Reference_hist.count r then
          Alcotest.failf "seed %d: count differs" seed;
        same "sum" (Hist.sum h) (Reference_hist.sum r);
        same "mean" (Hist.mean h) (Reference_hist.mean r);
        same "min" (Hist.min_value h) (Reference_hist.min_value r);
        same "max" (Hist.max_value h) (Reference_hist.max_value r);
        List.iter
          (fun p ->
            same (Printf.sprintf "p%g" p) (Hist.quantile h p)
              (Reference_hist.quantile r p))
          ps
      in
      let n = 1 + Rng.int rng 300 in
      for i = 1 to n do
        let v = draw rng in
        Hist.observe h v;
        Reference_hist.observe r v;
        if i mod 16 = 0 || i = n then check i
      done)
    (List.init 200 Fun.id)

(* +infinity counts in a top bucket whose lower bound is infinity: seven
   infinities after 1, 2 and 3 put the median among them.  A NaN is
   refused and leaves the histogram as it was. *)
let test_hist_non_finite () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 1.0; 2.0; 3.0 ];
  for _ = 1 to 7 do
    Hist.observe h infinity
  done;
  Alcotest.(check int) "n" 10 (Hist.count h);
  Alcotest.check feq "p10" 1.0 (Hist.quantile h 10.0);
  Alcotest.check feq "p30" 3.0 (Hist.quantile h 30.0);
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "p%g is infinity" p) true
        (Hist.quantile h p = infinity))
    [ 40.0; 50.0; 90.0; 99.0; 100.0 ];
  Alcotest.(check bool) "max" true (Hist.max_value h = infinity);
  let top = Hist.create () in
  Hist.observe top infinity;
  Alcotest.(check bool) "a lone infinity" true (Hist.quantile top 50.0 = infinity);
  let below = Hist.create () in
  List.iter (Hist.observe below) [ neg_infinity; 1.0 ];
  Alcotest.check feq "neg_infinity clamps to the zero bucket" 0.0
    (Hist.quantile below 50.0);
  let n = Hist.create () in
  Hist.observe n 1000.0;
  (match Hist.observe n Float.nan with
  | () -> Alcotest.fail "NaN accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "NaN not counted" 1 (Hist.count n);
  Alcotest.check feq "sum untouched" 1000.0 (Hist.sum n);
  Alcotest.check feq "p99" 1000.0 (Hist.quantile n 99.0)

(* ---------- profile on a fixed-seed traced fig9-style run ---------- *)

let arch_4x4 = lazy (Option.get (Cgra.standard ~size:4 ~page_pes:4))

let suite_4x4 =
  lazy
    (match Binary.compile_suite (Lazy.force arch_4x4) with
    | Ok s -> s
    | Error e -> Alcotest.failf "compile_suite: %s" e)

let traced_events () =
  let suite = Lazy.force suite_4x4 in
  let threads = Workload.generate ~seed:0 ~n_threads:8 ~cgra_need:0.875 ~suite () in
  let trace = T.make () in
  ignore
    (Os_sim.run ~trace
       { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi });
  T.events trace

let report_of events =
  match Analyze.profile events with
  | Ok r -> r
  | Error e -> Alcotest.failf "profile: %s" e

let test_profile_run_header () =
  let events = traced_events () in
  let r = report_of events in
  Alcotest.(check string) "mode" "multi" r.run.mode;
  Alcotest.(check string) "policy" "halving" r.run.policy;
  Alcotest.(check int) "pages" 4 r.run.total_pages;
  Alcotest.(check int) "threads" 8 r.run.n_threads;
  Alcotest.(check int) "rows stamped in trace" 4 r.run.rows;
  Alcotest.(check int) "mem ports stamped in trace" 2 r.run.mem_ports;
  Alcotest.(check int) "event count" (List.length events) r.run.n_events;
  Alcotest.(check int) "one heat row per thread" 8 (List.length r.residents);
  Alcotest.(check bool) "geometry present -> row bus" true
    (r.row_bus <> None)

(* The report is pinned byte-for-byte: same seed, same text, same JSON —
   however many domains produced the run, live or re-imported.  If a
   rendering or analysis change is intentional, re-run
   [dune exec bin/cgra_tool.exe -- profile ...] and update the digests. *)
let golden_text_digest = "8e4e52cf0670f2f891b78eba77f44645"
let golden_json_digest = "aa3a2b8c872bf4fa693484da645b5184"

let test_profile_golden () =
  let r = report_of (traced_events ()) in
  let text = Render.text r in
  let json = Render.json_string r in
  Alcotest.(check string) "golden text" golden_text_digest
    (Digest.to_hex (Digest.string text));
  Alcotest.(check string) "golden json" golden_json_digest
    (Digest.to_hex (Digest.string json));
  (match Json.parse json with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string)) "top-level keys sorted"
        [ "counters"; "latency"; "occupancy"; "reshapes"; "row_bus"; "run";
          "stalls" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "profile JSON is not an object"
  | Error e -> Alcotest.failf "profile JSON does not parse: %s" e);
  (* a fresh identical run renders byte-identically *)
  let r2 = report_of (traced_events ()) in
  Alcotest.(check string) "re-run text identical" text (Render.text r2);
  Alcotest.(check string) "re-run json identical" json (Render.json_string r2)

let test_profile_posthoc_equals_live () =
  let events = traced_events () in
  let live = report_of events in
  match Export.of_jsonl (Export.jsonl events) with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok events' ->
      let posthoc = report_of events' in
      Alcotest.(check string) "text identical" (Render.text live)
        (Render.text posthoc);
      Alcotest.(check string) "json identical" (Render.json_string live)
        (Render.json_string posthoc)

let test_stall_attribution_vs_replay () =
  let events = traced_events () in
  let r = report_of events in
  let replay_wait =
    List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Replay.wait_intervals events)
  in
  let queueing =
    List.fold_left
      (fun acc (s : Analyze.stall_attrib) -> acc +. s.queueing)
      0.0 r.stalls
  in
  Alcotest.check (Alcotest.float 1e-6)
    "total queueing = Replay's wait-interval sum" replay_wait queueing;
  List.iter
    (fun (s : Analyze.stall_attrib) ->
      Alcotest.check (Alcotest.float 1e-6)
        (Printf.sprintf "t%d components sum to total" s.thread)
        s.total
        (s.queueing +. s.reshape +. s.execution);
      Alcotest.(check bool)
        (Printf.sprintf "t%d components non-negative" s.thread)
        true
        (s.queueing >= 0.0 && s.reshape >= 0.0 && s.execution >= 0.0))
    r.stalls;
  let segments =
    List.fold_left
      (fun acc (s : Analyze.stall_attrib) -> acc + s.segments)
      0 r.stalls
  in
  Alcotest.(check int) "latency histogram counts every segment" segments
    (Hist.count r.latency_all)

let test_profile_requires_header () =
  match Analyze.profile [] with
  | Ok _ -> Alcotest.fail "profiled an empty stream"
  | Error e ->
      Alcotest.(check bool) "mentions run_begin" true
        (String.length e > 0)

(* One-field edits of a valid JSONL trace: each used to crash the
   profiler (or, for a fractional thread id, be silently truncated); each
   must now be a typed error naming the edited line. *)
let test_hostile_fields_are_typed_errors () =
  let lines = String.split_on_char '\n' (Export.jsonl (traced_events ())) in
  let first_line kind =
    let rec go i = function
      | [] -> Alcotest.failf "no %s line" kind
      | l :: rest ->
          if contains ~sub:(Printf.sprintf "\"kind\":%S" kind) l then i
          else go (i + 1) rest
    in
    go 0 lines
  in
  (* replace the number right after the first occurrence of [key] *)
  let set_number ~key ~value l =
    let n = String.length key in
    let rec find i =
      if i + n > String.length l then Alcotest.failf "%S not in %s" key l
      else if String.sub l i n = key then i + n
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while !stop < String.length l && String.contains "-0123456789.e" l.[!stop] do
      incr stop
    done;
    String.sub l 0 start ^ value ^ String.sub l !stop (String.length l - !stop)
  in
  let grant = first_line "kernel_grant" in
  List.iter
    (fun (line, key, value) ->
      let doc =
        String.concat "\n"
          (List.mapi (fun i l -> if i = line then set_number ~key ~value l else l) lines)
      in
      match Export.of_jsonl doc with
      | Ok _ -> Alcotest.failf "%s %s accepted" key value
      | Error e ->
          let tag = Printf.sprintf "line %d:" (line + 1) in
          if not (contains ~sub:tag e) then
            Alcotest.failf "%s %s: error %S does not name %s" key value e tag)
    [
      (first_line "run_begin", "\"total_pages\":", "-3");
      (grant, "\"range\":{\"base\":", "-1");
      (grant, "\"range\":{\"base\":", "4611686018427387904");
      (grant, "\"thread\":", "1.7");
    ]

(* The profiler never raises on a well-typed stream: page ranges outside
   the fabric and absurd fabric extents are errors. *)
let test_profile_rejects_out_of_bounds () =
  let events = traced_events () in
  let with_payload f =
    List.map (fun (e : T.event) -> { e with payload = f e.payload }) events
  in
  let rejects what evs =
    match Analyze.profile evs with
    | Ok _ -> Alcotest.failf "%s: profiled" what
    | Error _ -> ()
  in
  rejects "grant past the last page"
    (with_payload (function
      | T.Kernel_grant r -> T.Kernel_grant { r with range = { base = 3; len = 2 } }
      | p -> p));
  rejects "negative reshape base"
    (with_payload (function
      | T.Reshape r -> T.Reshape { r with after = { r.after with base = -1 } }
      | p -> p));
  rejects "2^40 pages"
    (with_payload (function
      | T.Run_begin r -> T.Run_begin { r with total_pages = 1 lsl 40 }
      | p -> p))

(* Differential against the farm front end: each shard's busy cycles
   are accounted twice, independently — the front end sums
   (retire - dispatch) per request it routed to the shard, and the
   profiler reconstructs per-thread request->release totals from the
   shard's own trace.  Every farm request is a single-kernel thread, so
   the two sums must agree exactly, shard by shard. *)
let test_farm_busy_vs_stall_attribution () =
  let p =
    {
      Cgra_farm.Farm.default_params with
      n_requests = 40;
      offered_load = 2.0;
      seed = 7;
    }
  in
  match Cgra_farm.Farm.run ~traced:true p with
  | Error e -> Alcotest.failf "Farm.run: %s" e
  | Ok r ->
      List.iter2
        (fun (sr : Cgra_farm.Farm.shard_report) events ->
          let rep = report_of events in
          let attributed =
            List.fold_left
              (fun acc (s : Analyze.stall_attrib) -> acc +. s.total)
              0.0 rep.stalls
          in
          Alcotest.check (Alcotest.float 1e-6)
            (Printf.sprintf "shard %d: front-end busy = attributed total"
               sr.Cgra_farm.Farm.s_index)
            sr.Cgra_farm.Farm.s_busy_cycles attributed;
          Alcotest.(check int)
            (Printf.sprintf "shard %d: one attribution per served request"
               sr.Cgra_farm.Farm.s_index)
            sr.Cgra_farm.Farm.s_served
            (List.length rep.stalls))
        r.Cgra_farm.Farm.shard_reports r.Cgra_farm.Farm.shard_events

(* ---------- bench gate ---------- *)

let doc_of_string s =
  match Bench_gate.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "Bench_gate.parse: %s" e

(* a row's better/kind/bound fields, [bound] as JSON number text *)
let gate_fields better kind bound =
  Printf.sprintf {|"better": %S, "kind": %S, "bound": %s|} better kind bound

(* one row with every field; [value] and [spread] are JSON number text *)
let row_text ?(gate = gate_fields "lower" "measured" "2.0") ?(spread = "1.0")
    name value =
  Printf.sprintf
    {|{ "name": %S, "value": %s, "domains": 1, "runs": 5, "spread": %s, %s }|}
    name value spread gate

let row_line ?gate name v = row_text ?gate name (Printf.sprintf "%f" v)

let doc_with rows =
  Printf.sprintf
    {|{ "bench": "micro", "domains": 1, "unit": "ns_per_run", "results": [ %s ] }|}
    (String.concat ", " rows)

let warm_gate = gate_fields "lower" "measured" "4.0"

let micro_doc ~fold ~warm ~greedy =
  doc_of_string
    (doc_with
       [ row_line "fold sobel" fold;
         row_line ~gate:warm_gate "compile-sobel-warm" warm;
         row_line "greedy transform" greedy ])

let baseline_doc () = micro_doc ~fold:1000.0 ~warm:50.0 ~greedy:2000.0

let current ?(fold = 1100.0) ?(warm = 120.0) ?(greedy = 1900.0) () =
  micro_doc ~fold ~warm ~greedy

let refused what s =
  match Bench_gate.parse s with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error _ -> ()

(* A full row with one field left out is refused with an error naming
   that field: nothing is defaulted. *)
let check_field_required missing =
  let fields =
    [ ("name", {|"x"|}); ("value", "1.0"); ("domains", "1"); ("runs", "5");
      ("spread", "1.0"); ("better", {|"lower"|}); ("kind", {|"measured"|});
      ("bound", "2.0") ]
  in
  let row_without missing =
    "{ "
    ^ String.concat ", "
        (List.filter_map
           (fun (k, v) ->
             if k = missing then None else Some (Printf.sprintf "%S: %s" k v))
           fields)
    ^ " }"
  in
  ignore (doc_of_string (doc_with [ row_without "" ]));
  match Bench_gate.parse (doc_with [ row_without missing ]) with
  | Ok _ -> Alcotest.failf "row without %S accepted" missing
  | Error e ->
      Alcotest.(check bool) (e ^ " names the field") true
        (contains ~sub:(Printf.sprintf "%S" missing) e)

let test_gate_tolerances () =
  (* the bound is the row's own, whatever its name says: a warm-named
     row at 2.0 fails a 2.1x slowdown, a fold row at 4.0 absorbs 2.4x *)
  let gate ~bound name v =
    let doc v =
      doc_of_string
        (doc_with [ row_line ~gate:(gate_fields "lower" "measured" bound) name v ])
    in
    Bench_gate.failures
      (Bench_gate.check ~baseline:(doc 100.0) ~current:(doc v))
  in
  Alcotest.(check int) "warm name, 2x bound" 1
    (gate ~bound:"2.0" "compile-sobel-warm" 210.0);
  Alcotest.(check int) "fold name, 4x bound" 0 (gate ~bound:"4.0" "fold sobel" 240.0);
  (* a row that does not state its gate is refused, not defaulted *)
  List.iter check_field_required [ "better"; "kind"; "bound" ]

let test_gate_passes_in_tolerance () =
  let baseline = baseline_doc () in
  (* within tolerance, an improvement, and a warm row at 2.4x (under its
     4x allowance) all pass *)
  let outcomes = Bench_gate.check ~baseline ~current:(current ()) in
  Alcotest.(check int) "no failures" 0 (Bench_gate.failures outcomes);
  Alcotest.(check int) "one outcome per baseline row" 3 (List.length outcomes);
  (* baselines vs themselves is the --check mode invariant *)
  Alcotest.(check int) "self-check passes" 0
    (Bench_gate.failures (Bench_gate.check ~baseline ~current:baseline))

let test_gate_fails_inflated_row () =
  let baseline = baseline_doc () in
  let outcomes =
    Bench_gate.check ~baseline ~current:(current ~fold:2100.0 ())
  in
  Alcotest.(check int) "exactly the inflated row fails" 1
    (Bench_gate.failures outcomes);
  let bad = List.find (fun (o : Bench_gate.outcome) -> not o.ok) outcomes in
  Alcotest.(check string) "the 2.1x row" "fold sobel" bad.base.name;
  let rendered = Bench_gate.render ~unit_:"ns_per_run" outcomes in
  Alcotest.(check bool) "render says FAIL" true (contains ~sub:"FAIL" rendered);
  (* the same 2.1x inflation on a warm row is within its 4x tolerance *)
  Alcotest.(check int) "warm row absorbs 2.4x" 0
    (Bench_gate.failures
       (Bench_gate.check ~baseline ~current:(current ~warm:120.0 ())))

let test_gate_missing_row_fails () =
  let baseline = baseline_doc () in
  let current = doc_of_string (doc_with [ row_line "fold sobel" 1000.0 ]) in
  let outcomes = Bench_gate.check ~baseline ~current in
  Alcotest.(check int) "two rows missing" 2 (Bench_gate.failures outcomes);
  List.iter
    (fun (o : Bench_gate.outcome) ->
      if o.base.name <> "fold sobel" then
        Alcotest.(check bool) (o.base.name ^ " missing -> fail") false o.ok)
    outcomes

let test_bus_pressure_exact_counts () =
  (* the static analyzer recounts the mapping's memory ops exactly: cell
     sums equal the placed load/store count, no cell exceeds the row-bus
     budget (the mapping validated), and both renderings are stable *)
  let a = Lazy.force arch_4x4 in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let m =
    match Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged a k.graph with
    | Ok m -> m
    | Error e -> Alcotest.failf "map: %s" e
  in
  let b = Analyze.bus_pressure m in
  Alcotest.(check string) "kernel name" "sobel" b.kernel;
  Alcotest.(check int) "ii" m.ii b.ii;
  Alcotest.(check int) "mem ops counted"
    (Cgra_dfg.Graph.mem_node_count m.graph) b.mem_ops;
  let sum =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 b.demand
  in
  Alcotest.(check int) "cells sum to mem ops" b.mem_ops sum;
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun s d ->
          if d > b.capacity then
            Alcotest.failf "row %d slot %d: %d > capacity %d" r s d b.capacity)
        row)
    b.demand;
  (match Json.parse (Render.bus_pressure_json_string b) with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string)) "json keys sorted"
        [ "capacity"; "demand"; "headroom"; "ii"; "kernel"; "mem_ops"; "rows";
          "saturated" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "bus-pressure JSON is not an object"
  | Error e -> Alcotest.failf "bus-pressure JSON does not parse: %s" e);
  let text = Render.bus_pressure_text b in
  Alcotest.(check bool) "text carries the header" true
    (contains ~sub:"bus pressure: sobel" text);
  Alcotest.(check string) "re-render identical" text
    (Render.bus_pressure_text (Analyze.bus_pressure m))

let test_gate_fig8_higher_is_better () =
  (* fig8 rows are quality scores: improvements pass, any real drop
     fails — the inverse of the wall-clock direction *)
  let doc v =
    doc_of_string
      (doc_with
         [ row_line
             ~gate:(gate_fields "higher" "exact" "0.05")
             "fig8 4x4 p4 geomean" v ])
  in
  let baseline = doc 88.159 in
  Alcotest.(check bool) "fig8 row gates upward" true
    ((List.hd baseline.rows).better = Bench_gate.Higher);
  Alcotest.(check bool) "wall rows gate downward" true
    ((List.hd (baseline_doc ()).rows).better = Bench_gate.Lower);
  let failures v =
    Bench_gate.failures (Bench_gate.check ~baseline ~current:(doc v))
  in
  Alcotest.(check int) "self passes" 0 (failures 88.159);
  Alcotest.(check int) "improvement passes" 0 (failures 95.0);
  Alcotest.(check int) "formatting epsilon absorbed" 0 (failures 88.12);
  Alcotest.(check int) "quality drop fails" 1 (failures 82.0);
  (* the drop would have sailed through the wall-clock direction (82 <=
     88 * 2.0), so this asserts the direction actually flipped *)
  let rendered =
    Bench_gate.render ~unit_:"percent"
      (Bench_gate.check ~baseline ~current:(doc 82.0))
  in
  Alcotest.(check bool) "render marks the drop" true
    (contains ~sub:"FAIL" rendered);
  Alcotest.(check bool) "render shows the flipped budget" true
    (contains ~sub:">=base" rendered)

let test_gate_farm_deterministic () =
  (* farm rows are virtual-clock outputs: flat-epsilon gating, direction
     by row — throughput up, latency quantiles down *)
  let doc tput p99 =
    doc_of_string
      (doc_with
         [ row_line ~gate:(gate_fields "higher" "exact" "0.001")
             "farm load1.0 req/kcycle" tput;
           row_line ~gate:(gate_fields "lower" "exact" "0.001")
             "farm load1.0 latency p99" p99 ])
  in
  let baseline = doc 13.856 464.0 in
  (match baseline.rows with
  | [ tput; p99 ] ->
      Alcotest.(check bool) "farm throughput gates upward" true
        (tput.better = Bench_gate.Higher);
      Alcotest.(check bool) "farm latency gates downward" true
        (p99.better = Bench_gate.Lower);
      Alcotest.(check bool) "farm rows are exact" true
        (tput.kind = Bench_gate.Exact && p99.kind = Bench_gate.Exact)
  | _ -> Alcotest.fail "row count");
  let failures tput p99 =
    Bench_gate.failures (Bench_gate.check ~baseline ~current:(doc tput p99))
  in
  Alcotest.(check int) "self passes" 0 (failures 13.856 464.0);
  Alcotest.(check int) "improvements pass" 0 (failures 15.0 400.0);
  Alcotest.(check int) "%.3f rounding absorbed" 0 (failures 13.8555 464.0005);
  Alcotest.(check int) "throughput drop fails" 1 (failures 13.0 464.0);
  (* a 1-cycle p99 regression is far inside any wall-clock tolerance but
     must fail the deterministic row *)
  Alcotest.(check int) "latency regression fails" 1 (failures 13.856 465.0);
  let rendered =
    Bench_gate.render ~unit_:"mixed"
      (Bench_gate.check ~baseline ~current:(doc 13.856 465.0))
  in
  Alcotest.(check bool) "render shows the downward budget" true
    (contains ~sub:"<=base" rendered)

let test_gate_parses_old_format () =
  (* rows written before every row stated its gate — no runs, spread,
     per-row domains, better, kind or bound — are refused, and so is a
     row missing any one of the fields the old format had or defaulted *)
  refused "old format"
    {|{ "bench": "micro", "domains": 4, "unit": "ns_per_run", "results": [
        { "name": "x", "value": 10.0 } ] }|};
  List.iter check_field_required [ "name"; "value"; "domains"; "runs"; "spread" ]

let test_gate_refuses_hostile_rows () =
  (* an infinite baseline could never fail: at the parent commit a row
     with value 1e400 passed a current value of 1e300 *)
  let gated better kind bound =
    row_text ~gate:(gate_fields better kind bound) "x" "1"
  in
  List.iter
    (fun (what, rows) -> refused what (doc_with rows))
    [ ("infinite value", [ row_text "x" "1e400" ]);
      ("negative value", [ row_text "x" "-1" ]);
      ("infinite spread", [ row_text ~spread:"1e400" "x" "1" ]);
      ("negative spread", [ row_text ~spread:"-0.5" "x" "1" ]);
      ("infinite bound", [ gated "lower" "measured" "1e400" ]);
      ("negative bound", [ gated "higher" "exact" "-0.001" ]);
      ("measured bound below 1", [ gated "lower" "measured" "0.5" ]);
      ("unknown better", [ gated "sideways" "measured" "2" ]);
      ("unknown kind", [ gated "lower" "guessed" "2" ]);
      ("duplicate name", [ row_text "x" "1"; row_text "x" "2" ]) ];
  (* the edges stay legal: an exact bound of 0 and a measured one of 1 *)
  ignore (doc_of_string (doc_with [ gated "lower" "exact" "0" ]));
  ignore (doc_of_string (doc_with [ gated "lower" "measured" "1" ]))

(* The parent commit's gate, verbatim: it worked each row's direction and
   tolerance out of the row's name.  The reference the explicit fields
   are checked against. *)
module Name_rules = struct
  open Bench_gate

  let has_prefix p name =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p

  let contains sub name =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    m = 0 || go 0

  let sim_rate name = contains "sim-rate" name

  let deterministic name = has_prefix "farm" name && not (sim_rate name)

  let higher_is_better name =
    has_prefix "fig8" name || sim_rate name
    || (deterministic name && contains "req/" name)

  let epsilon name = if deterministic name then 0.001 else 0.05

  let tolerance name =
    if sim_rate name then 2.0
    else if higher_is_better name || deterministic name then 1.0
    else if has_prefix "compile-sobel-warm" name || has_prefix "compile-suite-warm" name
    then 4.0 (* microsecond-scale disk reads: highest relative jitter *)
    else 2.0

  type outcome = {
    o_name : string;
    baseline : float;
    current : float option;
    tol : float;
    ok : bool;
  }

  let check ~baseline ~current =
    List.map
      (fun b ->
        let tol = tolerance b.name in
        match List.find_opt (fun c -> c.name = b.name) current.rows with
        | None -> { o_name = b.name; baseline = b.value; current = None; tol;
                    ok = false }
        | Some c ->
            let ok =
              if sim_rate b.name then c.value >= b.value /. tol
              else if higher_is_better b.name then
                c.value >= b.value -. epsilon b.name
              else if deterministic b.name then
                c.value <= b.value +. epsilon b.name
              else c.value <= b.value *. tol
            in
            { o_name = b.name; baseline = b.value; current = Some c.value; tol;
              ok })
      baseline.rows
end

(* The committed baselines, as the test's [deps] copy them beside the
   directory that holds this executable: found from the executable, so
   the suite runs from any working directory. *)
let committed_baselines =
  List.map
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)))
    [ "BENCH_micro.json"; "BENCH_fig9.json"; "BENCH_fig8.json"; "BENCH_farm.json";
      "BENCH_farm_big.json" ]

let test_gate_matches_name_rules () =
  (* every committed row, at current values on both sides of each bound
     either rule set could have: the fields give the old verdict *)
  let factors = [ 0.0; 0.5; 1.0; 1.999; 2.0; 2.001; 3.999; 4.0; 4.001; 10.0 ] in
  let offsets = [ 0.0009; 0.001; 0.0011; 0.049; 0.05; 0.051 ] in
  let rows = ref 0 in
  List.iter
    (fun file ->
      let doc = doc_of_string (In_channel.with_open_bin file In_channel.input_all) in
      List.iter
        (fun (b : Bench_gate.row) ->
          incr rows;
          let probes =
            List.map (fun f -> b.value *. f) factors
            @ List.concat_map (fun d -> [ b.value +. d; b.value -. d ]) offsets
          in
          let verdicts =
            List.map
              (fun v ->
                let baseline = { doc with rows = [ b ] } in
                let current = { doc with rows = [ { b with value = v } ] } in
                let ok = (List.hd (Bench_gate.check ~baseline ~current)).ok in
                let ref_ok = (List.hd (Name_rules.check ~baseline ~current)).ok in
                if ok <> ref_ok then
                  Alcotest.failf "%s %S at %.17g: fields say %b, names said %b" file
                    b.name v ok ref_ok;
                ok)
              probes
          in
          Alcotest.(check bool) (b.name ^ ": probes on both sides") true
            (List.mem true verdicts && List.mem false verdicts))
        doc.rows)
    committed_baselines;
  Alcotest.(check int) "every committed row probed" 43 !rows

let () =
  Alcotest.run "prof"
    [
      ( "hist",
        [
          Alcotest.test_case "exact at bucket edges" `Quick
            test_hist_exact_at_edges;
          Alcotest.test_case "mid-bucket error bound" `Quick
            test_hist_mid_bucket_error_bound;
          Alcotest.test_case "zero and negative clamp" `Quick
            test_hist_zero_and_negative;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "matches the hashtable reference" `Quick
            test_hist_matches_reference;
          Alcotest.test_case "infinity on top, NaN refused" `Quick
            test_hist_non_finite;
        ] );
      ( "profile",
        [
          Alcotest.test_case "run header" `Quick test_profile_run_header;
          Alcotest.test_case "golden report digests" `Quick
            test_profile_golden;
          Alcotest.test_case "post-hoc JSONL = live" `Quick
            test_profile_posthoc_equals_live;
          Alcotest.test_case "stall attribution vs replay" `Quick
            test_stall_attribution_vs_replay;
          Alcotest.test_case "hostile JSONL fields are typed errors" `Quick
            test_hostile_fields_are_typed_errors;
          Alcotest.test_case "out-of-bounds ranges rejected" `Quick
            test_profile_rejects_out_of_bounds;
          Alcotest.test_case "empty stream rejected" `Quick
            test_profile_requires_header;
          Alcotest.test_case "bus pressure exact counts" `Quick
            test_bus_pressure_exact_counts;
          Alcotest.test_case "farm busy cycles vs stall attribution" `Quick
            test_farm_busy_vs_stall_attribution;
        ] );
      ( "bench gate",
        [
          Alcotest.test_case "tolerances" `Quick test_gate_tolerances;
          Alcotest.test_case "passes in tolerance" `Quick
            test_gate_passes_in_tolerance;
          Alcotest.test_case "fails inflated row" `Quick
            test_gate_fails_inflated_row;
          Alcotest.test_case "missing row fails" `Quick
            test_gate_missing_row_fails;
          Alcotest.test_case "fig8 rows gate higher-is-better" `Quick
            test_gate_fig8_higher_is_better;
          Alcotest.test_case "farm rows gate deterministically" `Quick
            test_gate_farm_deterministic;
          Alcotest.test_case "old baseline format" `Quick
            test_gate_parses_old_format;
          Alcotest.test_case "hostile rows refused" `Quick
            test_gate_refuses_hostile_rows;
          Alcotest.test_case "fields match the old name rules" `Quick
            test_gate_matches_name_rules;
        ] );
    ]
