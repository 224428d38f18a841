open Cgra_arch
open Cgra_dfg
open Cgra_mapper
open Cgra_verify

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let map_ok kind a g =
  match Scheduler.map kind a g with
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping failed: %s" e

let has_rule r vs = List.exists (fun (v : Verify.violation) -> v.rule = r) vs

(* A two-node producer/consumer graph whose placements the tests position
   by hand. *)
let pair_graph () =
  let b = Builder.create ~name:"pair" in
  let x = Builder.load b "in0" ~offset:0 ~stride:1 in
  let _ = Builder.store b "out" ~offset:0 ~stride:1 x in
  Builder.finish b

let pair_mapping ?(paged = true) ?(ii = 2) ~producer ~ptime ~consumer ~ctime a =
  let g = pair_graph () in
  {
    Mapping.arch = a;
    graph = g;
    ii;
    placements =
      [|
        Some { Mapping.pe = producer; time = ptime };
        Some { Mapping.pe = consumer; time = ctime };
      |];
    routes = [];
    paged;
  }

let coord row col = Coord.make ~row ~col

(* ---------- acceptance: everything the compiler produces passes ---------- *)

let test_accepts_scheduler_output (size, page_pes) kind () =
  let a = arch size page_pes in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok kind a k.graph in
      match Verify.mapping m with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s rejected: %s" k.name (String.concat "; " es))
    Cgra_kernels.Kernels.all

let test_agrees_with_validator () =
  let a = arch 4 4 in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      List.iter
        (fun kind ->
          let m = map_ok kind a k.graph in
          Alcotest.(check bool)
            (k.name ^ " checker and validator agree")
            (Mapping.validate m = Ok ())
            (Verify.mapping m = Ok ()))
        [ Scheduler.Unconstrained; Scheduler.Paged ])
    Cgra_kernels.Kernels.all

(* ---------- rejection: hand-built violations of each rule ---------- *)

let test_rejects_ring_violation () =
  (* consumer on page 0 reads from a producer on page 1: data may only
     flow forward along the ring *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 2) ~ptime:0 ~consumer:(coord 0 1) ~ctime:1
  in
  let vs = Verify.check m in
  Alcotest.(check bool) "ring violation found" true (has_rule Verify.Ring vs);
  Alcotest.(check bool) "validator agrees" true (Mapping.validate m <> Ok ())

let test_accepts_forward_ring_step () =
  (* the mirror image — page 0 feeding page 1 — is legal *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 1) ~ptime:0 ~consumer:(coord 0 2) ~ctime:1
  in
  Alcotest.(check bool) "accepted" true (Verify.mapping m = Ok ())

let test_rejects_continuity_violation () =
  let a = arch 4 4 in
  let m =
    pair_mapping ~paged:false a ~producer:(coord 0 0) ~ptime:0 ~consumer:(coord 3 3)
      ~ctime:1
  in
  Alcotest.(check bool) "continuity violation found" true
    (has_rule Verify.Continuity (Verify.check m))

let test_rejects_premature_read () =
  (* adjacent PEs but the consumer fires in the same cycle the producer
     does: the value does not exist yet *)
  let a = arch 4 4 in
  let m =
    pair_mapping ~paged:false a ~producer:(coord 0 0) ~ptime:0 ~consumer:(coord 0 1)
      ~ctime:0
  in
  Alcotest.(check bool) "premature read found" true
    (has_rule Verify.Continuity (Verify.check m))

let test_rejects_slot_conflict () =
  (* same PE, times 0 and 2 under ii = 2: both land in modulo-slot 0 *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 0) ~ptime:0 ~consumer:(coord 0 0) ~ctime:2
  in
  Alcotest.(check bool) "slot conflict found" true
    (has_rule Verify.Slot_conflict (Verify.check m))

let test_rejects_rf_overflow () =
  (* a value alive 100 cycles at ii = 2 needs 50 rotating registers;
     capacity is 16 *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 2) ~ptime:0 ~consumer:(coord 0 3) ~ctime:100
  in
  let vs = Verify.check m in
  Alcotest.(check bool) "rf overflow found" true (has_rule Verify.Rf_capacity vs)

let test_rejects_noncontiguous_pages () =
  (* occupants on pages 0 and 2 with nothing on page 1 *)
  let a = arch 4 2 in
  let m =
    pair_mapping a ~producer:(coord 0 0) ~ptime:0 ~consumer:(coord 0 1) ~ctime:1
  in
  (* pe (0,0) is page 0 and (0,1) is page 0 on 1x2 tiles; move consumer *)
  let m =
    { m with
      Mapping.placements =
        [|
          Some { Mapping.pe = coord 0 0; time = 0 };
          Some { Mapping.pe = coord 1 2; time = 1 };
        |];
    }
  in
  let vs = Verify.check m in
  Alcotest.(check bool) "non-contiguous pages found" true (has_rule Verify.Ring vs)

let test_rejects_unplaced_node () =
  let a = arch 4 4 in
  let g = pair_graph () in
  let m =
    {
      Mapping.arch = a;
      graph = g;
      ii = 1;
      placements = [| Some { Mapping.pe = coord 0 0; time = 0 }; None |];
      routes = [];
      paged = false;
    }
  in
  Alcotest.(check bool) "unplaced node found" true
    (has_rule Verify.Schedule (Verify.check m))

let test_rejects_foreign_route () =
  let a = arch 4 4 in
  let m =
    pair_mapping ~paged:false a ~producer:(coord 0 0) ~ptime:0 ~consumer:(coord 0 1)
      ~ctime:1
  in
  let bogus =
    { Mapping.edge = { Graph.src = 1; dst = 0; operand = 3; distance = 0 }; hops = [] }
  in
  let m = { m with Mapping.routes = [ bogus ] } in
  Alcotest.(check bool) "foreign route found" true
    (has_rule Verify.Routes (Verify.check m))

let test_violation_rendering () =
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 2) ~ptime:0 ~consumer:(coord 0 1) ~ctime:1
  in
  match Verify.mapping m with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error es ->
      Alcotest.(check bool) "rendered with rule prefix" true
        (List.exists (fun s -> String.length s > 5 && String.sub s 0 5 = "ring:") es)

(* ---------- acceptance at non-zero base pages ---------- *)

let test_accepts_relocated_base () =
  (* the same legal pair shifted one page up the ring: contiguous pages
     [1; 2] must be accepted even though they are not a prefix *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(coord 0 2) ~ptime:0 ~consumer:(coord 1 2) ~ctime:1
  in
  (* both on page 1 *)
  Alcotest.(check (list int)) "pages used" [ 1 ] (Mapping.pages_used m);
  Alcotest.(check bool) "accepted at base 1" true (Verify.mapping m = Ok ());
  Alcotest.(check bool) "validator also accepts" true (Mapping.validate m = Ok ())

(* ---------- bus-aware mappings through the independent checkers ---------- *)

let test_bus_aware_accepted_and_within_budget () =
  (* every bandwidth-aware mapping must clear the independent checker
     AND the Meld co-residency checker's Bus_capacity walk (solo
     resident), and its per-(row, slot) memory-port counts — recounted
     here from the raw placements, not via the scheduler's own tables —
     must never exceed the row-bus budget *)
  List.iter
    (fun (size, page_pes) ->
      let a = arch size page_pes in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          let tag = Printf.sprintf "%s %dx%d p%d" k.name size size page_pes in
          let m = map_ok Scheduler.Paged a k.graph in
          (match Verify.mapping m with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s rejected by Verify: %s" tag (String.concat "; " es));
          (match Meld.check_mappings [ m ] with
          | Ok _ -> ()
          | Error vs ->
              Alcotest.failf "%s rejected by Meld: %s" tag
                (String.concat "; "
                   (List.map (fun (v : Meld.violation) -> v.detail) vs)));
          let counts = Hashtbl.create 32 in
          Array.iteri
            (fun id p ->
              match p with
              | Some (p : Mapping.placement)
                when Op.is_mem (Graph.node m.graph id).op ->
                  let key = (p.pe.Coord.row, p.time mod m.ii) in
                  Hashtbl.replace counts key
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
              | _ -> ())
            m.placements;
          Hashtbl.iter
            (fun (row, slot) n ->
              if n > a.Cgra.mem_ports_per_row then
                Alcotest.failf "%s: row %d slot %d issues %d accesses (budget %d)"
                  tag row slot n a.Cgra.mem_ports_per_row)
            counts)
        Cgra_kernels.Kernels.all)
    [ (4, 4); (6, 2); (8, 8) ]

(* ---------- validator / checker differential agreement ---------- *)

let test_fuzzed_agreement () =
  (* replay the fuzz generator and push every mapping — the source, a
     pe-exact fold, and randomly perturbed mutants — through both the
     mapper's own [Mapping.validate] and the independent [Verify.mapping]:
     the two must agree on accept/reject everywhere *)
  let agree ~what ?(check_mem = true) m =
    let v = Mapping.validate ~check_mem m = Ok () in
    let c = Verify.mapping ~check_mem m = Ok () in
    if v <> c then Alcotest.failf "%s: validator says %b, checker says %b" what v c;
    v
  in
  let mapped = ref 0 and mutants = ref 0 and mutant_rejects = ref 0 in
  let fabrics = [| (4, 4); (4, 2); (6, 8) |] (* the pipeline harness's *) in
  List.iter
    (fun seed ->
      let rng = Cgra_util.Rng.create ~seed in
      let size, page_pes = Cgra_util.Rng.choose rng fabrics in
      let a = arch size page_pes in
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = Cgra_util.Rng.int_in rng 8 15;
          mem_fraction = 0.15 +. Cgra_util.Rng.float rng 0.15;
          recurrence = Cgra_util.Rng.bool rng;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map ~seed Scheduler.Paged a g with
      | Error _ -> () (* a capacity miss, not an invariant failure *)
      | Ok m ->
          incr mapped;
          if not (agree ~what:(Printf.sprintf "seed %d source" seed) m) then
            Alcotest.failf "seed %d: scheduler output rejected by both" seed;
          let n = Mapping.n_pages_used m in
          (match
             Cgra_core.Transform.fold ~base_page:0 ~target_pages:(max 1 (n / 2)) m
           with
          | Error _ -> ()
          | Ok sh ->
              if sh.Cgra_core.Transform.pe_exact then
                ignore
                  (agree ~check_mem:false
                     ~what:(Printf.sprintf "seed %d fold" seed)
                     sh.Cgra_core.Transform.mapping));
          (* mutants: nudge one placement in time or space *)
          for i = 1 to 4 do
            let pl = Array.copy m.Mapping.placements in
            let idx = Cgra_util.Rng.int rng (Array.length pl) in
            (match pl.(idx) with
            | None -> ()
            | Some p ->
                let p' =
                  if Cgra_util.Rng.bool rng then
                    { p with Mapping.time = p.time + Cgra_util.Rng.int_in rng 1 3 }
                  else
                    {
                      p with
                      Mapping.pe =
                        Coord.make
                          ~row:(Cgra_util.Rng.int rng a.Cgra.grid.Grid.rows)
                          ~col:(Cgra_util.Rng.int rng a.Cgra.grid.Grid.cols);
                    }
                in
                pl.(idx) <- Some p');
            let mutant = { m with Mapping.placements = pl } in
            incr mutants;
            if not (agree ~what:(Printf.sprintf "seed %d mutant %d" seed i) mutant)
            then incr mutant_rejects
          done)
    (List.init 60 Fun.id);
  Alcotest.(check bool) "most seeds mapped" true (!mapped >= 45);
  Alcotest.(check bool) "mutants exercised" true (!mutants >= 100);
  Alcotest.(check bool) "some mutants rejected" true (!mutant_rejects > 0)

(* ---------- the fuzz corpus ---------- *)

let test_fuzz_corpus () =
  let o =
    Cgra_util.Corpus.run (Fuzz.harness ~iterations:8) ~seeds:(List.init 50 Fun.id)
  in
  let count = Cgra_util.Corpus.count o in
  (match o.failures with
  | [] -> ()
  | fs -> Alcotest.failf "fuzz failures:\n%s" (String.concat "\n" fs));
  Alcotest.(check int) "all cases attempted" 50 o.cases;
  Alcotest.(check bool) "most cases mapped" true (count "mapped" >= 40);
  Alcotest.(check bool) "folds exercised" true (count "folds" >= 100);
  Alcotest.(check bool) "non-zero bases exercised" true
    (count "folds at base > 0" > 0);
  Alcotest.(check bool) "refolds from non-zero bases exercised" true
    (count "refolds" > 0);
  Alcotest.(check bool) "oracle exercised" true
    (count "oracle runs" > count "folds" / 2)

let () =
  Alcotest.run "verify"
    [
      ( "acceptance",
        [
          Alcotest.test_case "scheduler output 4x4 p4 paged" `Quick
            (test_accepts_scheduler_output (4, 4) Scheduler.Paged);
          Alcotest.test_case "scheduler output 4x4 p4 unconstrained" `Quick
            (test_accepts_scheduler_output (4, 4) Scheduler.Unconstrained);
          Alcotest.test_case "scheduler output 4x4 p2 paged" `Quick
            (test_accepts_scheduler_output (4, 2) Scheduler.Paged);
          Alcotest.test_case "scheduler output 6x6 p8 paged" `Quick
            (test_accepts_scheduler_output (6, 8) Scheduler.Paged);
          Alcotest.test_case "agrees with Mapping.validate" `Quick
            test_agrees_with_validator;
          Alcotest.test_case "forward ring step accepted" `Quick
            test_accepts_forward_ring_step;
          Alcotest.test_case "relocated base accepted" `Quick test_accepts_relocated_base;
          Alcotest.test_case "bus-aware mappings pass Verify + Meld" `Quick
            test_bus_aware_accepted_and_within_budget;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "ring violation" `Quick test_rejects_ring_violation;
          Alcotest.test_case "continuity violation" `Quick
            test_rejects_continuity_violation;
          Alcotest.test_case "premature read" `Quick test_rejects_premature_read;
          Alcotest.test_case "slot conflict" `Quick test_rejects_slot_conflict;
          Alcotest.test_case "register-file overflow" `Quick test_rejects_rf_overflow;
          Alcotest.test_case "non-contiguous pages" `Quick
            test_rejects_noncontiguous_pages;
          Alcotest.test_case "unplaced node" `Quick test_rejects_unplaced_node;
          Alcotest.test_case "foreign route" `Quick test_rejects_foreign_route;
          Alcotest.test_case "rendering" `Quick test_violation_rendering;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "validator and checker agree on fuzzed mappings"
            `Quick test_fuzzed_agreement;
          Alcotest.test_case "fixed 50-seed corpus is clean" `Quick test_fuzz_corpus;
        ] );
    ]
