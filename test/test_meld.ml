(* The independent co-residency checker and its differential fuzz
   harness: one seeded regression per meld rule (disjointness,
   page-range vs allocator grants, bus capacity over the hyperperiod,
   per-resident legality, resident-set shape), report parity with the
   runtime's own Coexec.check, and the fuzz corpus — including
   pool-width invariance of the aggregated outcome. *)

open Cgra_arch
open Cgra_mapper
open Cgra_core
open Cgra_verify

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let has_rule r = function
  | Ok _ -> false
  | Error vs -> List.exists (fun (v : Meld.violation) -> v.rule = r) vs

let load_graph name =
  Cgra_dfg.Graph.create ~name
    ~ops:[ Cgra_dfg.Op.Load { array = "x"; offset = 0; stride = 1 } ]
    ~edges:[]

let load_mapping a ~ii ~row ~col ~time =
  {
    Mapping.arch = a;
    graph = load_graph "ld";
    ii;
    placements = [| Some { Mapping.pe = Coord.make ~row ~col; time } |];
    routes = [];
    paged = false;
  }

(* load feeding a store, placed by hand *)
let pair_mapping a ~producer ~ptime ~consumer ~ctime =
  let b = Cgra_dfg.Builder.create ~name:"pair" in
  let x = Cgra_dfg.Builder.load b "in0" ~offset:0 ~stride:1 in
  let _ = Cgra_dfg.Builder.store b "out" ~offset:0 ~stride:1 x in
  let g = Cgra_dfg.Builder.finish b in
  {
    Mapping.arch = a;
    graph = g;
    ii = 2;
    placements =
      [|
        Some { Mapping.pe = producer; time = ptime };
        Some { Mapping.pe = consumer; time = ctime };
      |];
    routes = [];
    paged = false;
  }

(* place kernels side by side through the allocator + fold, keeping the
   grants — the harness the meld checker is meant to audit *)
let melded a names =
  let al = Allocator.create ~total_pages:(Cgra.n_pages a) () in
  List.mapi
    (fun i name ->
      let k = Cgra_kernels.Kernels.find_exn name in
      let m =
        match Scheduler.map Scheduler.Paged a k.graph with
        | Ok m -> m
        | Error e -> Alcotest.failf "map %s: %s" name e
      in
      match Allocator.request al ~client:i ~desired:(Mapping.n_pages_used m) with
      | None -> Alcotest.failf "no pages for %s" name
      | Some r -> (
          match
            Transform.fold ~base_page:r.Allocator.base ~target_pages:r.Allocator.len
              m
          with
          | Ok sh -> Meld.of_shrunk ~grant:r ~id:i sh
          | Error e -> Alcotest.failf "fold %s: %s" name e))
    names

(* ---------- resident-set shape ---------- *)

let test_empty_rejected () =
  Alcotest.(check bool) "empty set rejected" true
    (has_rule Meld.Residents (Meld.check []))

let test_foreign_fabric_rejected () =
  let m4 = load_mapping (arch 4 4) ~ii:1 ~row:0 ~col:0 ~time:0 in
  let m8 = load_mapping (arch 8 4) ~ii:1 ~row:5 ~col:5 ~time:0 in
  let r = Meld.check_mappings [ m4; m8 ] in
  Alcotest.(check bool) "foreign fabric rejected" true (has_rule Meld.Residents r);
  Alcotest.(check bool) "runtime agrees" true
    (Result.is_error (Cgra_sim.Coexec.check [ m4; m8 ]))

(* ---------- disjointness ---------- *)

let test_shared_pe_rejected () =
  let a = arch 4 4 in
  let m = load_mapping a ~ii:1 ~row:1 ~col:1 ~time:0 in
  let r = Meld.check_mappings ~check_mem:false [ m; m ] in
  Alcotest.(check bool) "shared PE rejected" true (has_rule Meld.Disjoint r);
  Alcotest.(check bool) "runtime agrees" true
    (Result.is_error (Cgra_sim.Coexec.check ~check_mem:false [ m; m ]))

let test_disjoint_pes_accepted () =
  let a = arch 4 4 in
  let m1 = load_mapping a ~ii:1 ~row:0 ~col:0 ~time:0 in
  let m2 = load_mapping a ~ii:1 ~row:2 ~col:2 ~time:0 in
  match Meld.check_mappings [ m1; m2 ] with
  | Ok rep -> Alcotest.(check int) "two residents" 2 rep.Meld.residents
  | Error vs ->
      Alcotest.failf "rejected: %s"
        (Format.asprintf "%a" Meld.pp_violation (List.hd vs))

(* ---------- page ranges ---------- *)

let test_grant_mismatch_rejected () =
  (* resident occupies page 0 but claims a grant at pages [2, 3) *)
  let a = arch 4 4 in
  let m = load_mapping a ~ii:1 ~row:0 ~col:0 ~time:0 in
  let r =
    Meld.check [ Meld.resident ~grant:{ Allocator.base = 2; len = 1 } ~id:0 m ]
  in
  Alcotest.(check bool) "grant mismatch rejected" true (has_rule Meld.Page_range r)

let test_overlapping_grants_rejected () =
  let a = arch 4 4 in
  let m1 = load_mapping a ~ii:1 ~row:0 ~col:0 ~time:0 in
  let m2 = load_mapping a ~ii:1 ~row:2 ~col:2 ~time:0 in
  (* disjoint PEs, but the claimed grants [0+2] and [1+2] overlap *)
  let r =
    Meld.check
      [
        Meld.resident ~grant:{ Allocator.base = 0; len = 2 } ~id:0 m1;
        Meld.resident ~grant:{ Allocator.base = 1; len = 2 } ~id:1 m2;
      ]
  in
  Alcotest.(check bool) "overlapping grants rejected" true
    (has_rule Meld.Page_range r)

let test_noncontiguous_pages_rejected () =
  (* one resident with ops on pages 0 and 2 and nothing on page 1 *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(Coord.make ~row:0 ~col:0) ~ptime:0
      ~consumer:(Coord.make ~row:2 ~col:2) ~ctime:1
  in
  Alcotest.(check bool) "non-contiguous pages rejected" true
    (has_rule Meld.Page_range (Meld.check_mappings [ m ]))

(* ---------- bus capacity over the hyperperiod ---------- *)

let test_bus_collision_at_hyperperiod () =
  (* IIs 2 and 3 with modulo slots 0 and 2: the issue patterns only
     collide at cycle 2 of the 6-cycle hyperperiod, invisible at either
     resident's own II granularity *)
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let a = Cgra.make ~mem_ports_per_row:1 pages in
  let m1 = load_mapping a ~ii:2 ~row:0 ~col:0 ~time:0 in
  let m2 = load_mapping a ~ii:3 ~row:0 ~col:2 ~time:2 in
  let r = Meld.check_mappings [ m1; m2 ] in
  Alcotest.(check bool) "hyperperiod collision rejected" true
    (has_rule Meld.Bus_capacity r);
  Alcotest.(check bool) "runtime agrees" true
    (Result.is_error (Cgra_sim.Coexec.check [ m1; m2 ]));
  (match Meld.check_mappings ~check_mem:false [ m1; m2 ] with
  | Ok _ -> ()
  | Error vs ->
      Alcotest.failf "check_mem:false should pass: %s"
        (Format.asprintf "%a" Meld.pp_violation (List.hd vs)));
  (* different rows never share a bus: same slots, row apart, accepted *)
  let m3 = load_mapping a ~ii:3 ~row:1 ~col:2 ~time:2 in
  Alcotest.(check bool) "different rows accepted" true
    (Result.is_ok (Meld.check_mappings [ m1; m3 ]))

(* ---------- per-resident legality ---------- *)

let test_exact_resident_checked () =
  (* an "exact" resident whose consumer cannot reach its producer: the
     single-mapping checker must fire through the meld checker *)
  let a = arch 4 4 in
  let m =
    pair_mapping a ~producer:(Coord.make ~row:0 ~col:0) ~ptime:0
      ~consumer:(Coord.make ~row:0 ~col:1) ~ctime:0
  in
  let r = Meld.check [ Meld.resident ~exact:true ~id:0 m ] in
  Alcotest.(check bool) "premature read surfaces" true
    (has_rule Meld.Resident_legal r);
  (* the same resident without the exact claim is only page-checked *)
  Alcotest.(check bool) "positional resident passes" true
    (Result.is_ok (Meld.check [ Meld.resident ~exact:false ~id:0 m ]))

(* ---------- report parity with the runtime ---------- *)

let test_report_matches_coexec () =
  let a = arch 8 4 in
  let residents = melded a [ "mpeg"; "gsr"; "wavelet" ] in
  let mappings = List.map (fun (r : Meld.resident) -> r.Meld.mapping) residents in
  match (Meld.check ~check_mem:false residents,
         Cgra_sim.Coexec.check ~check_mem:false mappings)
  with
  | Ok mr, Ok cr ->
      Alcotest.(check int) "residents" cr.Cgra_sim.Coexec.residents mr.Meld.residents;
      Alcotest.(check int) "hyperperiod" cr.Cgra_sim.Coexec.hyperperiod
        mr.Meld.hyperperiod;
      Alcotest.(check bool) "ipc bit-equal" true
        (compare cr.Cgra_sim.Coexec.ipc mr.Meld.ipc = 0);
      Alcotest.(check bool) "utilization bit-equal" true
        (compare cr.Cgra_sim.Coexec.utilization mr.Meld.utilization = 0)
  | Error vs, _ ->
      Alcotest.failf "meld rejected: %s"
        (Format.asprintf "%a" Meld.pp_violation (List.hd vs))
  | _, Error es -> Alcotest.failf "coexec rejected: %s" (List.hd es)

let test_single_resident_hyperperiod () =
  let a = arch 8 4 in
  match melded a [ "sor" ] with
  | [ r ] -> (
      match Meld.check ~check_mem:false [ r ] with
      | Ok rep ->
          Alcotest.(check int) "hyperperiod is the resident's own II"
            r.Meld.mapping.Mapping.ii rep.Meld.hyperperiod
      | Error vs ->
          Alcotest.failf "rejected: %s"
            (Format.asprintf "%a" Meld.pp_violation (List.hd vs)))
  | rs -> Alcotest.failf "expected one resident, got %d" (List.length rs)

(* ---------- the fuzz corpus ---------- *)

let test_meld_fuzz_corpus () =
  let o = Cgra_util.Corpus.run Meld_fuzz.harness ~seeds:(List.init 40 Fun.id) in
  let count = Cgra_util.Corpus.count o in
  (match o.failures with
  | [] -> ()
  | fs -> Alcotest.failf "meld fuzz failures:\n%s" (String.concat "\n" fs));
  Alcotest.(check int) "all cases attempted" 40 o.cases;
  Alcotest.(check int) "one set per case" 40 (count "sets");
  Alcotest.(check bool) "both verdicts exercised" true
    (count "accepted" > 0 && count "rejected" > 0);
  Alcotest.(check bool) "mutants injected" true (count "mutants" > 40)

let () =
  Alcotest.run "meld"
    [
      ( "rules",
        [
          Alcotest.test_case "empty set rejected" `Quick test_empty_rejected;
          Alcotest.test_case "foreign fabric rejected" `Quick
            test_foreign_fabric_rejected;
          Alcotest.test_case "shared PE rejected" `Quick test_shared_pe_rejected;
          Alcotest.test_case "disjoint PEs accepted" `Quick test_disjoint_pes_accepted;
          Alcotest.test_case "grant mismatch rejected" `Quick
            test_grant_mismatch_rejected;
          Alcotest.test_case "overlapping grants rejected" `Quick
            test_overlapping_grants_rejected;
          Alcotest.test_case "non-contiguous pages rejected" `Quick
            test_noncontiguous_pages_rejected;
          Alcotest.test_case "bus collision at the hyperperiod" `Quick
            test_bus_collision_at_hyperperiod;
          Alcotest.test_case "exact resident checked" `Quick
            test_exact_resident_checked;
        ] );
      ( "parity",
        [
          Alcotest.test_case "report matches the runtime" `Quick
            test_report_matches_coexec;
          Alcotest.test_case "single resident hyperperiod" `Quick
            test_single_resident_hyperperiod;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "fixed 40-seed corpus is clean" `Quick
            test_meld_fuzz_corpus;
        ] );
    ]
