open Cgra_util

let check_int = Alcotest.(check int)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 13 in
    Alcotest.(check bool) "in [0,13)" true (x >= 0 && x < 13)
  done

let test_rng_int_in_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_int_covers_range () =
  let r = Rng.create ~seed:3 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Rng.int r 4) <- true
  done;
  Alcotest.(check bool) "all residues appear" true (Array.for_all Fun.id seen)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues the stream" xa xb;
  ignore (Rng.bits64 a);
  let xa' = Rng.bits64 a and xb' = Rng.bits64 b in
  Alcotest.(check bool) "then diverges by position" true (xa' <> xb' || xa' = xb')

let test_rng_split_independent () =
  let a = Rng.create ~seed:11 in
  let c = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 c) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_bool_balanced () =
  let r = Rng.create ~seed:13 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:17 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_choose () =
  let r = Rng.create ~seed:19 in
  for _ = 1 to 100 do
    let x = Rng.choose r [| 1; 2; 3 |] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:23 in
  let n = 5000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:10.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (mean > 8.5 && mean < 11.5)

(* ---------- Pqueue ---------- *)

let int_q () = Pqueue.empty ~cmp:Int.compare

let test_pqueue_empty () =
  let q = int_q () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None)

let test_pqueue_sorted () =
  let q = List.fold_left (fun q p -> Pqueue.push q p p) (int_q ()) [ 5; 1; 4; 1; 3 ] in
  let order = List.map fst (Pqueue.to_sorted_list q) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] order

let test_pqueue_fifo_ties () =
  let q = int_q () in
  let q = Pqueue.push q 1 "first" in
  let q = Pqueue.push q 1 "second" in
  let q = Pqueue.push q 0 "zero" in
  let q = Pqueue.push q 1 "third" in
  let vals = List.map snd (Pqueue.to_sorted_list q) in
  Alcotest.(check (list string)) "ties in insertion order"
    [ "zero"; "first"; "second"; "third" ] vals

let test_pqueue_size () =
  let q = int_q () in
  check_int "empty size" 0 (Pqueue.size q);
  let q = Pqueue.push (Pqueue.push q 2 ()) 1 () in
  check_int "two" 2 (Pqueue.size q);
  match Pqueue.pop q with
  | Some (_, q') -> check_int "one after pop" 1 (Pqueue.size q')
  | None -> Alcotest.fail "pop"

let test_pqueue_peek_stable () =
  let q = Pqueue.of_list ~cmp:Int.compare [ (3, "c"); (1, "a"); (2, "b") ] in
  (match Pqueue.peek q with
  | Some (p, v) ->
      check_int "min prio" 1 p;
      Alcotest.(check string) "min value" "a" v
  | None -> Alcotest.fail "peek");
  check_int "peek does not consume" 3 (Pqueue.size q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Pqueue.of_list ~cmp:Int.compare (List.map (fun x -> (x, x)) xs) in
      let popped = List.map fst (Pqueue.to_sorted_list q) in
      popped = List.sort compare xs)

(* ---------- Stats ---------- *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "empty" 0.0 (Stats.geomean [])

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "single" 0.0 (Stats.stddev [ 1.0 ]);
  check_float "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_minmax () =
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.minimum: empty")
    (fun () -> ignore (Stats.minimum []))

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p50" 3.0 (Stats.percentile 50.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p25 interpolated" 2.0 (Stats.percentile 25.0 xs)

let test_stats_improvement () =
  check_float "2x faster = +100%" 100.0
    (Stats.improvement_percent ~baseline:10.0 ~improved:5.0);
  check_float "same = 0%" 0.0 (Stats.improvement_percent ~baseline:5.0 ~improved:5.0);
  check_float "slower is negative" (-50.0)
    (Stats.improvement_percent ~baseline:5.0 ~improved:10.0)

let test_stats_ratio () =
  check_float "ratio" 50.0 (Stats.ratio_percent 1.0 2.0);
  check_float "zero denominator" 0.0 (Stats.ratio_percent 1.0 0.0)

(* ---------- Pool ---------- *)

let test_pool_order_preserved () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 7 in
  Alcotest.(check (list int))
    "parallel = sequential, in order" (List.map f xs)
    (Pool.with_pool ~domains:4 (fun p -> Pool.map p f xs))

let test_pool_domains1_is_sequential () =
  let xs = List.init 50 Fun.id in
  let calls = ref [] in
  let f x =
    calls := x :: !calls;
    x * 2
  in
  let out = Pool.with_pool ~domains:1 (fun p -> Pool.map p f xs) in
  Alcotest.(check (list int)) "results" (List.map (fun x -> x * 2) xs) out;
  Alcotest.(check (list int)) "called in input order, on this domain" xs
    (List.rev !calls)

let test_pool_exception_propagates () =
  let f x = if x >= 50 then failwith (string_of_int x) else x in
  List.iter
    (fun domains ->
      match
        Pool.with_pool ~domains (fun p -> Pool.map p f (List.init 100 Fun.id))
      with
      | _ -> Alcotest.failf "no exception at %d domains" domains
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "earliest failure wins at %d domains" domains)
            "50" msg)
    [ 1; 4 ]

let test_pool_filter_map () =
  let xs = List.init 100 Fun.id in
  let f x = if x mod 3 = 0 then Some (x * 10) else None in
  Alcotest.(check (list int))
    "survivors keep input order" (List.filter_map f xs)
    (Pool.with_pool ~domains:4 (fun p -> Pool.filter_map p f xs))

let test_pool_reusable () =
  Pool.with_pool ~domains:3 (fun p ->
      (* requested width, clamped to the machine's cores *)
      Alcotest.(check int) "width"
        (min 3 (Domain.recommended_domain_count ()))
        (Pool.width p);
      let xs = List.init 64 Fun.id in
      Alcotest.(check (list int)) "first batch" (List.map succ xs)
        (Pool.map p succ xs);
      Alcotest.(check (list int))
        "second batch on the same pool"
        (List.map (fun x -> x - 1) xs)
        (Pool.map p (fun x -> x - 1) xs);
      (* nested use: a task fans out on the pool it is running on *)
      let nested =
        Pool.map p (fun x -> List.fold_left ( + ) 0 (Pool.map p (( * ) x) [ 1; 2; 3 ])) xs
      in
      Alcotest.(check (list int)) "nested batches" (List.map (fun x -> 6 * x) xs)
        nested)

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 () in
  Alcotest.(check (list int)) "map" [ 2; 4 ] (Pool.map p (( * ) 2) [ 1; 2 ]);
  Pool.shutdown p;
  Pool.shutdown p

let test_pool_env_default () =
  Alcotest.(check bool) "width >= 1" true (Pool.domains_from_env () >= 1)

(* burn deterministic CPU so slow/fast candidate orderings are real *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n * 1000 do
    acc := !acc + (i * i)
  done;
  ignore !acc

let test_race_deterministic_winner () =
  (* adversarial ordering: the lower a candidate's index, the slower it
     is, so higher-index successes finish first — the lowest succeeding
     index must still win *)
  let xs = List.init 16 Fun.id in
  let f ~doomed:_ x =
    spin (16 - x);
    if x >= 3 then Some (x * 100) else None
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          match Pool.race_poll p f xs with
          | Some (3, 300) -> ()
          | Some (x, y) ->
              Alcotest.failf "winner (%d, %d) at %d domains, wanted (3, 300)" x y
                domains
          | None -> Alcotest.failf "no winner at %d domains" domains))
    [ 1; 2; 4 ]

let test_race_cancellation_skips () =
  (* an instant success at index 0 dooms everything behind it: at most
     the candidates already in flight ever run *)
  let n = 200 in
  let evaluated = Atomic.make 0 in
  let f ~doomed:_ x =
    Atomic.incr evaluated;
    if x = 0 then Some () else (spin 5; None)
  in
  Pool.with_pool ~domains:4 (fun p ->
      match Pool.race_poll p f (List.init n Fun.id) with
      | Some (0, ()) ->
          let e = Atomic.get evaluated in
          Alcotest.(check bool)
            (Printf.sprintf "doomed candidates skipped (%d of %d ran)" e n)
            true (e < n)
      | Some (x, ()) -> Alcotest.failf "wrong winner %d" x
      | None -> Alcotest.fail "no winner")

let test_race_mid_flight_doomed () =
  (* a long-running loser observes [doomed] turning true once the winner
     (index 0) lands, and can abandon its work *)
  let aborted = Atomic.make 0 in
  let f ~doomed x =
    if x = 0 then Some ()
    else begin
      let gave_up = ref false in
      (try
         for _ = 1 to 10_000 do
           spin 1;
           if doomed () then raise Exit
         done
       with Exit -> gave_up := true);
      if !gave_up then Atomic.incr aborted;
      None
    end
  in
  Pool.with_pool ~domains:4 (fun p ->
      match Pool.race_poll p f (List.init 8 Fun.id) with
      | Some (0, ()) -> ()
      | Some (x, ()) -> Alcotest.failf "wrong winner %d" x
      | None -> Alcotest.fail "no winner")

let test_race_exception_semantics () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (* failure before any success: the earliest failure propagates,
             as in Pool.map *)
          (match
             Pool.race_poll p
               (fun ~doomed:_ x -> if x = 10 then failwith "boom" else None)
               xs
           with
          | _ -> Alcotest.failf "no exception at %d domains" domains
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "earliest failure at %d domains" domains)
                "boom" msg);
          (* success before the failure: the winner is returned and the
             speculative failure is discarded *)
          match
            Pool.race_poll p
              (fun ~doomed:_ x ->
                if x = 50 then failwith "late"
                else if x = 10 then Some x
                else None)
              xs
          with
          | Some (10, 10) -> ()
          | Some (x, _) -> Alcotest.failf "wrong winner %d at %d domains" x domains
          | None -> Alcotest.failf "no winner at %d domains" domains
          | exception Failure _ ->
              Alcotest.failf "failure past the winner leaked at %d domains" domains))
    [ 1; 4 ]

let test_race_width1_lazy () =
  (* sequential fallback: evaluation stops at the winner *)
  let evaluated = ref 0 in
  let f ~doomed:_ x =
    incr evaluated;
    if x = 5 then Some x else None
  in
  Pool.with_pool ~domains:1 (fun p ->
      match Pool.race_poll p f (List.init 100 Fun.id) with
      | Some (5, 5) -> check_int "nothing past the winner runs" 6 !evaluated
      | _ -> Alcotest.fail "wrong outcome")

let test_race_no_winner () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          Alcotest.(check bool)
            "all-fail race is None" true
            (Pool.race_poll p (fun ~doomed:_ _ -> None) (List.init 40 Fun.id)
            = None);
          Alcotest.(check bool)
            "empty race is None" true
            (Pool.race_poll p (fun ~doomed:_ x -> Some x) [] = None)))
    [ 1; 4 ]

(* ---------- Corpus ---------- *)

(* a synthetic harness: seed s counts s items; an odd seed also counts
   one [odd] and reports one failure; seed 7 raises *)
let synthetic =
  {
    Corpus.name = "synthetic";
    counters = [ "items"; "odd" ];
    case =
      (fun seed ->
        if seed = 7 then failwith "seven";
        (* burn a seed-dependent amount of CPU so completion order under
           a pool differs from seed order *)
        spin ((20 - seed) * 2);
        {
          Corpus.counts = [ ("items", seed); ("odd", seed land 1) ];
          failures =
            (if seed land 1 = 1 then [ Printf.sprintf "seed %d: odd" seed ] else []);
        });
  }

let test_corpus_aggregates_in_seed_order () =
  let seeds = List.init 12 Fun.id in
  let expected =
    {
      Corpus.harness = "synthetic";
      cases = 12;
      counts = [ ("items", 66 - 7); ("odd", 5) ];
      failures =
        [ "seed 1: odd"; "seed 3: odd"; "seed 5: odd";
          "seed 7: raised Failure(\"seven\")"; "seed 9: odd"; "seed 11: odd" ];
    }
  in
  Alcotest.(check bool) "sequential" true
    (Corpus.run synthetic ~seeds = expected);
  Alcotest.(check bool) "width 4" true
    (Pool.with_pool ~clamp:false ~domains:4 (fun pool ->
         Corpus.run ~pool synthetic ~seeds)
    = expected);
  check_int "count" 59 (Corpus.count expected "items");
  Alcotest.(check string) "rendering"
    "synthetic: 12 cases, 59 items, 5 odd\n6 FAILURES:\nseed 1: odd"
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 3)
          (String.split_on_char '\n' (Format.asprintf "%a" Corpus.pp expected))))

let test_corpus_rejects_undeclared_counter () =
  let h =
    {
      synthetic with
      Corpus.case = (fun _ -> { Corpus.counts = [ ("itmes", 1) ]; failures = [] });
    }
  in
  match Corpus.run h ~seeds:[ 0 ] with
  | _ -> Alcotest.fail "undeclared counter accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Table ---------- *)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check_int "four lines" 4 (List.length lines);
  Alcotest.(check bool) "has rule" true
    (String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1))

let test_table_alignment () =
  let s = Table.render ~header:[ "k"; "v" ] [ [ "x"; "123" ] ] in
  Alcotest.(check bool) "right-aligns numbers" true
    (String.length s > 0 && String.split_on_char '\n' s |> List.length = 3)

let test_table_fmt () =
  Alcotest.(check string) "float" "3.1" (Table.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "percent" "99.5%" (Table.fmt_percent 99.5)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "copy continues stream" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balanced;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose membership" `Quick test_rng_choose;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "sorted pops" `Quick test_pqueue_sorted;
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "size" `Quick test_pqueue_size;
          Alcotest.test_case "peek stable" `Quick test_pqueue_peek_stable;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "improvement" `Quick test_stats_improvement;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order_preserved;
          Alcotest.test_case "domains=1 sequential" `Quick
            test_pool_domains1_is_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "filter_map" `Quick test_pool_filter_map;
          Alcotest.test_case "reusable + nested" `Quick test_pool_reusable;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "env default" `Quick test_pool_env_default;
          Alcotest.test_case "race: deterministic winner" `Quick
            test_race_deterministic_winner;
          Alcotest.test_case "race: cancellation skips doomed" `Quick
            test_race_cancellation_skips;
          Alcotest.test_case "race: mid-flight doomed poll" `Quick
            test_race_mid_flight_doomed;
          Alcotest.test_case "race: exception semantics" `Quick
            test_race_exception_semantics;
          Alcotest.test_case "race: width-1 lazy fallback" `Quick
            test_race_width1_lazy;
          Alcotest.test_case "race: no winner" `Quick test_race_no_winner;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "aggregates in seed order" `Quick
            test_corpus_aggregates_in_seed_order;
          Alcotest.test_case "rejects an undeclared counter" `Quick
            test_corpus_rejects_undeclared_counter;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
        ] );
    ]
