open Cgra_util

let check_int = Alcotest.(check int)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Known answers: the first three outputs are the published splitmix64
   values for seed 0, and the rest pin what [int], [float] and [split]
   derive from that stream, so a change to the state's representation
   cannot move a single draw. *)
let test_rng_known_answers () =
  let r = Rng.create ~seed:0 in
  List.iter
    (fun want -> Alcotest.(check int64) "splitmix64 seed 0" want (Rng.bits64 r))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ];
  let r = Rng.create ~seed:0 in
  Alcotest.(check (list int)) "int draws" [ 7; 720; 1869; 2872; 3773 ]
    (List.map (Rng.int r) [ 10; 1010; 2010; 3010; 4010 ]);
  List.iter
    (fun want -> Alcotest.(check (float 0.0)) "float draw" want (Rng.float r 1.0))
    [ 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ];
  let r = Rng.create ~seed:0 in
  let c = Rng.split r in
  List.iter
    (fun want -> Alcotest.(check int64) "split stream" want (Rng.bits64 c))
    [ 0x568a9b0b1a2c05ecL; 0x44e5b8b147ef718bL ];
  Alcotest.(check int64) "parent after split" 0x6e789e6aa1b965f4L (Rng.bits64 r)

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

(* [shuffle_prefix] on a longer buffer against [shuffle] on a copy of the
   prefix, and against the Fisher–Yates [shuffle] ran before it called
   [shuffle_prefix] (copied here verbatim), for every length 0 to 70 at
   40 seeds: the same permutation, the tail untouched, and the three
   generators at the same state after. *)
let test_rng_shuffle_prefix () =
  let fisher_yates t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = Rng.int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
  in
  for seed = 0 to 39 do
    for n = 0 to 70 do
      let buf = Array.init 80 (fun i -> 1000 + i) in
      let copy = Array.sub buf 0 n and reference = Array.sub buf 0 n in
      let a = Rng.create ~seed and b = Rng.create ~seed and c = Rng.create ~seed in
      Rng.shuffle_prefix a buf n;
      Rng.shuffle b copy;
      fisher_yates c reference;
      let tag = Printf.sprintf "seed %d, length %d" seed n in
      Alcotest.(check (array int)) (tag ^ ": prefix = shuffle") copy (Array.sub buf 0 n);
      Alcotest.(check (array int)) (tag ^ ": shuffle = Fisher-Yates") reference copy;
      Alcotest.(check (array int)) (tag ^ ": tail untouched")
        (Array.init (80 - n) (fun i -> 1000 + n + i))
        (Array.sub buf n (80 - n));
      let next = Rng.bits64 a in
      Alcotest.(check int64) (tag ^ ": same draws as shuffle") (Rng.bits64 b) next;
      Alcotest.(check int64) (tag ^ ": same draws as Fisher-Yates") (Rng.bits64 c) next
    done
  done;
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "length %d refused" n)
        (Invalid_argument "Rng.shuffle_prefix") (fun () ->
          Rng.shuffle_prefix (Rng.create ~seed:0) (Array.make 3 0) n))
    [ -1; 4 ]

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

let int_q () = Pqueue.create ~cmp:Int.compare

let push_all q xs = List.iter (fun (p, x) -> Pqueue.push q p x) xs

(* every entry in popping order, emptying [q] *)
let drain q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc
    else
      let p = Pqueue.min_prio q in
      go ((p, Pqueue.pop_min q) :: acc)
  in
  go []

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_pqueue_empty () =
  let q = int_q () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop raises" true (raises_invalid (fun () -> Pqueue.pop_min q));
  Alcotest.(check bool) "min raises" true (raises_invalid (fun () -> Pqueue.min_prio q))

let test_pqueue_sorted () =
  let q = int_q () in
  push_all q (List.map (fun p -> (p, p)) [ 5; 1; 4; 1; 3 ]);
  let order = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] order

let test_pqueue_fifo_ties () =
  let q = int_q () in
  push_all q [ (1, "first"); (1, "second"); (0, "zero"); (1, "third") ];
  let vals = List.map snd (drain q) in
  Alcotest.(check (list string)) "ties in insertion order"
    [ "zero"; "first"; "second"; "third" ] vals

let test_pqueue_size () =
  let q = int_q () in
  check_int "empty size" 0 (Pqueue.size q);
  push_all q [ (2, ()); (1, ()) ];
  check_int "two" 2 (Pqueue.size q);
  Pqueue.pop_min q;
  check_int "one after pop" 1 (Pqueue.size q)

let test_pqueue_peek_stable () =
  let q = int_q () in
  push_all q [ (3, "c"); (1, "a"); (2, "b") ];
  check_int "min prio" 1 (Pqueue.min_prio q);
  check_int "peek does not consume" 3 (Pqueue.size q);
  Alcotest.(check string) "min value" "a" (Pqueue.pop_min q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = int_q () in
      push_all q (List.map (fun x -> (x, x)) xs);
      let popped = List.map fst (drain q) in
      popped = List.sort compare xs)

(* The array heap against the pairing heap it replaced ([Pairing_heap],
   a verbatim copy): seeded runs of interleaved pushes and pops over a
   few distinct priorities, so most pops choose among equal priorities
   and only the push order decides.  Both must pop the same (priority,
   value) sequence and agree on the size after every operation. *)
let test_pqueue_matches_pairing_heap () =
  let ties = ref 0 and pops = ref 0 in
  let run (type p) ~(cmp : p -> p -> int) ~(prio : Rng.t -> p) seed =
    let rng = Rng.create ~seed in
    let q = Pqueue.create ~cmp and r = ref (Pairing_heap.empty ~cmp) in
    let pop_both op =
      match Pairing_heap.pop !r with
      | None -> Alcotest.failf "seed %d op %d: the reference is empty" seed op
      | Some ((p, v), rest) ->
          r := rest;
          incr pops;
          let got_p = Pqueue.min_prio q in
          let got_v = Pqueue.pop_min q in
          if cmp got_p p <> 0 || got_v <> v then
            Alcotest.failf "seed %d op %d: popped value %d, the reference %d" seed op
              got_v v;
          (* a tie: an entry of the same priority is still queued *)
          if (not (Pqueue.is_empty q)) && cmp (Pqueue.min_prio q) p = 0 then incr ties
    in
    for op = 0 to 299 do
      (* pushes outweigh pops, so the heap grows past its first array *)
      if Rng.int rng 5 < 3 || Pqueue.is_empty q then begin
        let p = prio rng in
        Pqueue.push q p op;
        r := Pairing_heap.push !r p op
      end
      else pop_both op;
      if Pqueue.size q <> Pairing_heap.size !r then
        Alcotest.failf "seed %d op %d: sizes differ" seed op
    done;
    while not (Pqueue.is_empty q) do
      pop_both 300
    done;
    if not (Pairing_heap.is_empty !r) then
      Alcotest.failf "seed %d: the reference has entries left" seed
  in
  for seed = 0 to 99 do
    run ~cmp:Int.compare ~prio:(fun rng -> Rng.int rng 4) seed;
    (* the engine's own priorities: float event times *)
    run ~cmp:Float.compare
      ~prio:(fun rng -> float_of_int (Rng.int rng 6) *. 0.5)
      (seed + 1000)
  done;
  Alcotest.(check bool) "most pops break a tie" true (2 * !ties > !pops)

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
  (* one domain: evaluation stops at the winner, and a raise stops it
     the way a success does *)
  let evaluated = ref 0 in
  let f ~doomed:_ x =
    incr evaluated;
    if x = 5 then Some x else None
  in
  let raising ~doomed:_ x =
    incr evaluated;
    if x = 5 then failwith "five" else None
  in
  Pool.with_pool ~domains:1 (fun p ->
      (match Pool.race_poll p f (List.init 100 Fun.id) with
      | Some (5, 5) -> check_int "nothing past the winner runs" 6 !evaluated
      | _ -> Alcotest.fail "wrong outcome");
      evaluated := 0;
      match Pool.race_poll p raising (List.init 100 Fun.id) with
      | _ -> Alcotest.fail "no exception"
      | exception Failure _ ->
          check_int "nothing past the first raise runs" 6 !evaluated)

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

(* a synthetic harness: seed s counts s items and records its own
   number; an odd seed also counts one [odd] and reports one failure;
   seed 7 raises *)
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
          digest = Printf.sprintf "%d," seed;
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
      (* in seed order, and the raising seed adds nothing *)
      digest = Digest.to_hex (Digest.string "0,1,2,3,4,5,6,8,9,10,11,");
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
      Corpus.case = (fun _ -> { Corpus.counts = [ ("itmes", 1) ]; failures = []; digest = "" });
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

(* ---------- Int_set ---------- *)

(* Seeded add and mem sequences against the standard library's set:
   small ids, ids stepping by large powers of two (one home slot for a
   weak hash), negatives, [min_int] (the empty-slot marker) and
   [max_int], with repeats, across several doublings. *)
let test_int_set_matches_set () =
  let module S = Set.Make (Int) in
  let module Rng = Cgra_util.Rng in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let t = Cgra_util.Int_set.create () and r = ref S.empty in
      let draw () =
        match Rng.int rng 5 with
        | 0 -> Rng.int rng 64
        | 1 -> Rng.int rng 64 lsl 40
        | 2 -> -Rng.int rng 1000
        | 3 -> Rng.choose rng [| min_int; max_int; min_int + 1; max_int - 1; 0 |]
        | _ -> Int64.to_int (Rng.bits64 rng)
      in
      for op = 1 to 400 do
        let x = draw () in
        if Rng.bool rng then begin
          Cgra_util.Int_set.add t x;
          r := S.add x !r
        end;
        let y = if Rng.bool rng then x else draw () in
        if Cgra_util.Int_set.mem t y <> S.mem y !r then
          Alcotest.failf "seed %d, op %d: mem %d differs" seed op y
      done;
      S.iter
        (fun x ->
          if not (Cgra_util.Int_set.mem t x) then
            Alcotest.failf "seed %d: member %d lost" seed x)
        !r)
    (List.init 100 Fun.id)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "copy continues stream" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balanced;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "prefix shuffle = shuffle on a copy" `Quick
            test_rng_shuffle_prefix;
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
          Alcotest.test_case "matches the pairing heap" `Quick
            test_pqueue_matches_pairing_heap;
        ] );
      ( "int_set",
        [ Alcotest.test_case "matches Set" `Quick test_int_set_matches_set ] );
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
