open Cgra_dfg

let noload _ _ = Alcotest.fail "unexpected load"

let nostore _ _ _ = Alcotest.fail "unexpected store"

let ev ?(iter = 0) op args = Op.eval op ~iter ~load:noload ~store:nostore args

(* ---------- Op ---------- *)

let test_op_arity () =
  Alcotest.(check int) "const" 0 (Op.arity (Op.Const 3));
  Alcotest.(check int) "add" 2 (Op.arity Op.Add);
  Alcotest.(check int) "abs" 1 (Op.arity Op.Abs);
  Alcotest.(check int) "select" 3 (Op.arity Op.Select);
  Alcotest.(check int) "load" 0 (Op.arity (Op.Load { array = "a"; offset = 0; stride = 1 }));
  Alcotest.(check int) "store_idx" 2 (Op.arity (Op.Store_idx { array = "a" }))

let test_op_arith () =
  Alcotest.(check int) "add" 7 (ev Op.Add [ 3; 4 ]);
  Alcotest.(check int) "sub" (-1) (ev Op.Sub [ 3; 4 ]);
  Alcotest.(check int) "mul" 12 (ev Op.Mul [ 3; 4 ]);
  Alcotest.(check int) "shl" 12 (ev Op.Shl [ 3; 2 ]);
  Alcotest.(check int) "shr" 3 (ev Op.Shr [ 13; 2 ]);
  Alcotest.(check int) "shr negative" (-4) (ev Op.Shr [ -13; 2 ]);
  Alcotest.(check int) "and" 1 (ev Op.And [ 3; 5 ]);
  Alcotest.(check int) "or" 7 (ev Op.Or [ 3; 5 ]);
  Alcotest.(check int) "xor" 6 (ev Op.Xor [ 3; 5 ]);
  Alcotest.(check int) "min" 3 (ev Op.Min [ 3; 5 ]);
  Alcotest.(check int) "max" 5 (ev Op.Max [ 3; 5 ]);
  Alcotest.(check int) "abs" 4 (ev Op.Abs [ -4 ]);
  Alcotest.(check int) "neg" (-4) (ev Op.Neg [ 4 ])

let test_op_cmp_select () =
  Alcotest.(check int) "lt true" 1 (ev (Op.Cmp Op.Lt) [ 1; 2 ]);
  Alcotest.(check int) "lt false" 0 (ev (Op.Cmp Op.Lt) [ 2; 1 ]);
  Alcotest.(check int) "ge" 1 (ev (Op.Cmp Op.Ge) [ 2; 2 ]);
  Alcotest.(check int) "ne" 1 (ev (Op.Cmp Op.Ne) [ 1; 2 ]);
  Alcotest.(check int) "select then" 10 (ev Op.Select [ 1; 10; 20 ]);
  Alcotest.(check int) "select else" 20 (ev Op.Select [ 0; 10; 20 ])

let test_op_clamp () =
  Alcotest.(check int) "below" 0 (ev Op.Clamp8 [ -5 ]);
  Alcotest.(check int) "above" 255 (ev Op.Clamp8 [ 999 ]);
  Alcotest.(check int) "inside" 128 (ev Op.Clamp8 [ 128 ])

let test_op_iter_const_route () =
  Alcotest.(check int) "iter" 7 (ev ~iter:7 Op.Iter []);
  Alcotest.(check int) "const" 42 (ev (Op.Const 42) []);
  Alcotest.(check int) "route passes" 9 (ev Op.Route [ 9 ])

let test_op_memory_semantics () =
  let stored = ref None in
  let load a i = if a = "in" then 100 + i else Alcotest.fail "array" in
  let store a i v = stored := Some (a, i, v) in
  let v =
    Op.eval (Op.Load { array = "in"; offset = 2; stride = 3 }) ~iter:4 ~load ~store []
  in
  Alcotest.(check int) "affine load index" (100 + 14) v;
  let v = Op.eval (Op.Load_idx { array = "in" }) ~iter:0 ~load ~store [ 5 ] in
  Alcotest.(check int) "load_idx" 105 v;
  let v =
    Op.eval (Op.Store { array = "out"; offset = 1; stride = 2 }) ~iter:3 ~load ~store
      [ 77 ]
  in
  Alcotest.(check int) "store returns value" 77 v;
  Alcotest.(check bool) "store hits memory" true (!stored = Some ("out", 7, 77));
  ignore (Op.eval (Op.Store_idx { array = "out" }) ~iter:0 ~load ~store [ 9; 55 ]);
  Alcotest.(check bool) "store_idx" true (!stored = Some ("out", 9, 55))

let test_op_arity_mismatch () =
  Alcotest.check_raises "too few" (Invalid_argument "Op.eval: arity mismatch")
    (fun () -> ignore (ev Op.Add [ 1 ]))

let test_op_mem_predicates () =
  Alcotest.(check bool) "load is mem" true
    (Op.is_mem (Op.Load { array = "a"; offset = 0; stride = 1 }));
  Alcotest.(check bool) "add not mem" false (Op.is_mem Op.Add);
  Alcotest.(check bool) "store is store" true
    (Op.is_store (Op.Store { array = "a"; offset = 0; stride = 1 }));
  Alcotest.(check bool) "load not store" false
    (Op.is_store (Op.Load_idx { array = "a" }));
  Alcotest.(check (option string)) "array_of" (Some "a")
    (Op.array_of (Op.Store_idx { array = "a" }))

(* ---------- Graph validation ---------- *)

let simple_chain () =
  Graph.create ~name:"chain"
    ~ops:
      [
        Op.Load { array = "a"; offset = 0; stride = 1 };
        Op.Abs;
        Op.Store { array = "b"; offset = 0; stride = 1 };
      ]
    ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0) ]

let test_graph_create () =
  let g = simple_chain () in
  Alcotest.(check int) "nodes" 3 (Graph.n_nodes g);
  Alcotest.(check int) "edges" 2 (Graph.n_edges g);
  Alcotest.(check int) "mem" 2 (Graph.mem_node_count g);
  Alcotest.(check string) "name" "chain" (Graph.name g)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_graph_rejects_missing_operand () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Const 1; Op.Abs ] ~edges:[])

let test_graph_rejects_duplicate_operand () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Const 1; Op.Const 2; Op.Abs ]
        ~edges:[ (0, 2, 0, 0); (1, 2, 0, 0) ])

let test_graph_rejects_bad_operand_index () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Const 1; Op.Abs ] ~edges:[ (0, 1, 1, 0) ])

let test_graph_rejects_out_of_range () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Const 1; Op.Abs ] ~edges:[ (5, 1, 0, 0) ])

let test_graph_rejects_negative_distance () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Const 1; Op.Abs ] ~edges:[ (0, 1, 0, -1) ])

let test_graph_rejects_zero_distance_cycle () =
  expect_invalid (fun () ->
      Graph.create ~name:"bad" ~ops:[ Op.Abs; Op.Abs ]
        ~edges:[ (0, 1, 0, 0); (1, 0, 0, 0) ])

let test_graph_accepts_carried_cycle () =
  let g =
    Graph.create ~name:"rec" ~ops:[ Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 0, 0, 1) ]
  in
  Alcotest.(check int) "two nodes" 2 (Graph.n_nodes g)

let test_graph_topo_order () =
  let g = simple_chain () in
  Alcotest.(check (list int)) "chain order" [ 0; 1; 2 ] (Graph.topo_order g)

let test_graph_preds_sorted () =
  let g =
    Graph.create ~name:"two-operands" ~ops:[ Op.Const 1; Op.Const 2; Op.Sub ]
      ~edges:[ (1, 2, 1, 0); (0, 2, 0, 0) ]
  in
  let operands = List.map (fun (e : Graph.edge) -> e.operand) (Graph.preds g 2) in
  Alcotest.(check (list int)) "sorted by operand" [ 0; 1 ] operands

let test_graph_max_distance () =
  let g =
    Graph.create ~name:"d" ~ops:[ Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 0, 0, 3) ]
  in
  Alcotest.(check int) "max distance" 3 (Graph.max_distance g)

(* ---------- Builder ---------- *)

let test_builder_basic () =
  let b = Builder.create ~name:"t" in
  let x = Builder.load b "a" ~offset:0 ~stride:1 in
  let y = Builder.const b 3 in
  let z = Builder.op2 b Op.Add x y in
  let _ = Builder.store b "o" ~offset:0 ~stride:1 z in
  let g = Builder.finish b in
  Alcotest.(check int) "nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Graph.n_edges g)

let test_builder_arity_check () =
  let b = Builder.create ~name:"t" in
  let x = Builder.const b 1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.add b Op.Add [ (x, 0) ]);
       false
     with Invalid_argument _ -> true)

let test_builder_defer_cycle () =
  let b = Builder.create ~name:"t" in
  let x = Builder.load b "a" ~offset:0 ~stride:1 in
  let acc = Builder.defer b Op.Add in
  let out = Builder.op1 b Op.Abs acc in
  Builder.connect b ~src:x ~dst:acc ~operand:0 ~distance:0;
  Builder.connect b ~src:out ~dst:acc ~operand:1 ~distance:1;
  let _ = Builder.store b "o" ~offset:0 ~stride:1 out in
  let g = Builder.finish b in
  Alcotest.(check int) "rec_mii of 2-cycle" 2 (Analysis.rec_mii g)

(* ---------- Analysis ---------- *)

let test_analysis_res_mii () =
  let g = simple_chain () in
  Alcotest.(check int) "1 on 16 PEs" 1
    (Analysis.res_mii ~pes:16 ~mem_slots_per_cycle:8 g);
  Alcotest.(check int) "ceil 3/2" 2 (Analysis.res_mii ~pes:2 ~mem_slots_per_cycle:8 g);
  Alcotest.(check int) "mem bound" 2 (Analysis.res_mii ~pes:16 ~mem_slots_per_cycle:1 g);
  (* b[i] = a[i] + 3: four nodes, but no PE runs the constant *)
  let with_const =
    Graph.create ~name:"add_const"
      ~ops:
        [
          Op.Load { array = "a"; offset = 0; stride = 1 };
          Op.Const 3;
          Op.Add;
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 2, 0, 0); (1, 2, 1, 0); (2, 3, 0, 0) ]
  in
  Alcotest.(check int) "constants take no PE" 1
    (Analysis.res_mii ~pes:3 ~mem_slots_per_cycle:8 with_const)

let test_analysis_rec_mii () =
  Alcotest.(check int) "acyclic" 1 (Analysis.rec_mii (simple_chain ()));
  let self =
    Graph.create ~name:"self" ~ops:[ Op.Const 0; Op.Add ]
      ~edges:[ (0, 1, 0, 0); (1, 1, 1, 1) ]
  in
  Alcotest.(check int) "self loop" 1 (Analysis.rec_mii self);
  let three =
    Graph.create ~name:"three" ~ops:[ Op.Abs; Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0); (2, 0, 0, 1) ]
  in
  Alcotest.(check int) "3-cycle distance 1" 3 (Analysis.rec_mii three);
  let three_d2 =
    Graph.create ~name:"three" ~ops:[ Op.Abs; Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0); (2, 0, 0, 2) ]
  in
  Alcotest.(check int) "3-cycle distance 2" 2 (Analysis.rec_mii three_d2)

let test_analysis_feasible () =
  let three =
    Graph.create ~name:"three" ~ops:[ Op.Abs; Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0); (2, 0, 0, 1) ]
  in
  Alcotest.(check bool) "II=2 infeasible" false (Analysis.feasible_ii three 2);
  Alcotest.(check bool) "II=3 feasible" true (Analysis.feasible_ii three 3)

let test_analysis_asap_height () =
  let g = simple_chain () in
  Alcotest.(check (array int)) "asap" [| 0; 1; 2 |] (Analysis.asap g);
  Alcotest.(check (array int)) "height" [| 2; 1; 0 |] (Analysis.height g);
  Alcotest.(check int) "critical path" 3 (Analysis.critical_path g)

let test_analysis_sccs () =
  let g =
    Graph.create ~name:"mix" ~ops:[ Op.Const 0; Op.Add; Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 1, 1, 1); (1, 2, 0, 0); (2, 3, 0, 0) ]
  in
  let comp = Analysis.sccs g in
  Alcotest.(check bool) "distinct components" true
    (comp.(1) <> comp.(2) && comp.(2) <> comp.(3));
  let rank = Analysis.scc_topo_rank g in
  Alcotest.(check bool) "const before add" true (rank.(0) < rank.(1));
  Alcotest.(check bool) "add before abs chain" true
    (rank.(1) < rank.(2) && rank.(2) < rank.(3))

let test_analysis_rec_mii_with () =
  let g = simple_chain () in
  (* the ordering back-edge closes a circuit with the two data edges:
     latency 3, distance 1 *)
  Alcotest.(check int) "ordering raises MII" 3
    (Analysis.rec_mii_with ~extra:[ (2, 0, 1) ] g);
  Alcotest.(check int) "without it, acyclic" 1 (Analysis.rec_mii g)

(* ---------- Memdep ---------- *)

(* Node 0 is a constant feeding every store's value operand; memory ops
   start at node 1. *)
let mk_mem ops =
  let edges =
    List.concat
      (List.mapi
         (fun i op -> if Op.arity op = 1 then [ (0, i + 1, 0, 0) ] else [])
         ops)
  in
  Graph.create ~name:"mem" ~ops:(Op.Const 0 :: ops) ~edges

let shift_free deps =
  (* drop the constant node from consideration: it is node 0 and never a
     memory op, so [Memdep.ordering] never mentions it anyway *)
  deps

let test_memdep_load_load () =
  let g =
    mk_mem
      [
        Op.Load { array = "a"; offset = 0; stride = 1 };
        Op.Load { array = "a"; offset = 0; stride = 1 };
      ]
  in
  Alcotest.(check int) "loads never conflict" 0
    (List.length (shift_free (Memdep.ordering g)))

let test_memdep_anti_dependence () =
  (* load a[i+1] vs store a[i]: the store of iteration i+1 touches what
     the load of iteration i read *)
  let g =
    Graph.create ~name:"sor-ish"
      ~ops:
        [
          Op.Load { array = "a"; offset = 1; stride = 1 };
          Op.Store { array = "a"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0) ]
  in
  let deps = Memdep.ordering g in
  Alcotest.(check bool) "anti dep load->store distance 1" true
    (List.exists
       (fun (d : Memdep.t) -> d.src = 0 && d.dst = 1 && d.distance = 1)
       deps)

let test_memdep_true_dependence () =
  (* store a[i] feeds load a[i-2] read two iterations later *)
  let g =
    Graph.create ~name:"fwd"
      ~ops:
        [
          Op.Load { array = "a"; offset = -2; stride = 1 };
          Op.Store { array = "a"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0) ]
  in
  let deps = Memdep.ordering g in
  Alcotest.(check bool) "true dep store->load distance 2" true
    (List.exists
       (fun (d : Memdep.t) -> d.src = 1 && d.dst = 0 && d.distance = 2)
       deps)

let test_memdep_different_arrays () =
  let g =
    mk_mem
      [
        Op.Store { array = "a"; offset = 0; stride = 1 };
        Op.Store { array = "b"; offset = 0; stride = 1 };
      ]
  in
  Alcotest.(check int) "no conflict across arrays" 0 (List.length (Memdep.ordering g))

let test_memdep_non_intersecting () =
  let g =
    mk_mem
      [
        Op.Store { array = "a"; offset = 0; stride = 2 };
        Op.Load { array = "a"; offset = 1; stride = 2 };
      ]
  in
  Alcotest.(check int) "disjoint lattices" 0 (List.length (Memdep.ordering g))

let test_memdep_stride0 () =
  let g =
    mk_mem
      [
        Op.Store { array = "a"; offset = 3; stride = 0 };
        Op.Store { array = "a"; offset = 3; stride = 0 };
      ]
  in
  Alcotest.(check int) "two constraints" 2 (List.length (Memdep.ordering g))

let test_memdep_dynamic_conservative () =
  let g =
    Graph.create ~name:"dyn"
      ~ops:
        [
          Op.Const 0;
          Op.Store_idx { array = "a" };
          Op.Load { array = "a"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0); (0, 1, 1, 0) ]
  in
  Alcotest.(check int) "conservative pair" 2 (List.length (Memdep.ordering g))

let test_memdep_self_free () =
  let g = mk_mem [ Op.Store { array = "a"; offset = 0; stride = 1 } ] in
  Alcotest.(check int) "no self constraint" 0 (List.length (Memdep.ordering g))

(* ---------- Memory ---------- *)

let test_memory_basics () =
  let m = Memory.create [ ("a", [| 1; 2; 3 |]) ] in
  Alcotest.(check int) "load" 2 (Memory.load m "a" 1);
  Alcotest.(check int) "wrap positive" 1 (Memory.load m "a" 3);
  Alcotest.(check int) "wrap negative" 3 (Memory.load m "a" (-1));
  Memory.store m "a" 4 99;
  Alcotest.(check int) "store wrapped" 99 (Memory.load m "a" 1)

let test_memory_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Memory.create: duplicate array a")
    (fun () -> ignore (Memory.create [ ("a", [| 0 |]); ("a", [| 1 |]) ]))

let test_memory_copy_isolated () =
  let m = Memory.create [ ("a", [| 1; 2 |]) ] in
  let m' = Memory.copy m in
  Memory.store m' "a" 0 42;
  Alcotest.(check int) "original untouched" 1 (Memory.load m "a" 0);
  Alcotest.(check bool) "not equal now" false (Memory.equal m m')

let test_memory_diff () =
  let a = Memory.create [ ("x", [| 1; 2 |]) ] in
  let b = Memory.create [ ("x", [| 1; 5 |]) ] in
  Alcotest.(check bool) "diff found" true (Memory.diff a b = [ ("x", 1, 2, 5) ])

(* ---------- Interp ---------- *)

let test_interp_chain () =
  let b = Builder.create ~name:"t" in
  let x = Builder.load b "a" ~offset:0 ~stride:1 in
  let y = Builder.op2 b Op.Add x (Builder.const b 10) in
  let _ = Builder.store b "o" ~offset:0 ~stride:1 y in
  let g = Builder.finish b in
  let mem = Memory.create [ ("a", [| 1; 2; 3; 4 |]); ("o", Array.make 4 0) ] in
  Interp.run g mem ~iterations:4;
  Alcotest.(check (array int)) "outputs" [| 11; 12; 13; 14 |] (Memory.get mem "o")

let test_interp_carried_initial_zero () =
  let b = Builder.create ~name:"t" in
  let x = Builder.load b "a" ~offset:0 ~stride:1 in
  let acc = Builder.defer b Op.Add in
  Builder.connect b ~src:x ~dst:acc ~operand:0 ~distance:0;
  Builder.connect b ~src:acc ~dst:acc ~operand:1 ~distance:1;
  let _ = Builder.store b "o" ~offset:0 ~stride:1 acc in
  let g = Builder.finish b in
  let mem = Memory.create [ ("a", [| 1; 2; 3 |]); ("o", Array.make 3 0) ] in
  Interp.run g mem ~iterations:3;
  Alcotest.(check (array int)) "prefix sums" [| 1; 3; 6 |] (Memory.get mem "o")

let test_interp_history () =
  let b = Builder.create ~name:"t" in
  let i = Builder.op0 b Op.Iter in
  let _ = Builder.store b "o" ~offset:0 ~stride:1 i in
  let g = Builder.finish b in
  let mem = Memory.create [ ("o", Array.make 4 0) ] in
  let h = Interp.run_history g mem ~iterations:3 in
  Alcotest.(check int) "iter value in history" 2 h.(2).(0)

let test_interp_determinism () =
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let m1 = Cgra_kernels.Kernels.init_memory k in
  let m2 = Cgra_kernels.Kernels.init_memory k in
  Interp.run k.graph m1 ~iterations:10;
  Interp.run k.graph m2 ~iterations:10;
  Alcotest.(check bool) "same results" true (Memory.equal m1 m2)

(* ---------- Dot ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dot_export () =
  let g =
    Graph.create ~name:"d" ~ops:[ Op.Abs; Op.Abs ]
      ~edges:[ (0, 1, 0, 0); (1, 0, 0, 2) ]
  in
  let s = Dot.to_dot g in
  Alcotest.(check bool) "has digraph" true (contains s "digraph");
  Alcotest.(check bool) "has dashed carried edge" true (contains s "dashed");
  Alcotest.(check bool) "labels distance" true (contains s "d=2")

(* ---------- Synthetic ---------- *)

let test_synthetic_valid_and_deterministic () =
  for seed = 0 to 19 do
    let cfg =
      {
        Cgra_kernels.Synthetic.n_ops = 14;
        mem_fraction = 0.3;
        recurrence = seed mod 2 = 0;
      }
    in
    let g1 = Cgra_kernels.Synthetic.generate ~seed cfg in
    let g2 = Cgra_kernels.Synthetic.generate ~seed cfg in
    Alcotest.(check bool) "deterministic" true (Graph.equal_structure g1 g2);
    let mem = Cgra_kernels.Synthetic.memory_for ~seed g1 in
    Interp.run g1 mem ~iterations:5
  done

let prop_synthetic_recurrence =
  QCheck.Test.make ~name:"synthetic recurrence raises RecMII" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let cfg = { Cgra_kernels.Synthetic.default with recurrence = true } in
      Analysis.rec_mii (Cgra_kernels.Synthetic.generate ~seed cfg) >= 2)

let () =
  Alcotest.run "dfg"
    [
      ( "op",
        [
          Alcotest.test_case "arity" `Quick test_op_arity;
          Alcotest.test_case "arith" `Quick test_op_arith;
          Alcotest.test_case "cmp/select" `Quick test_op_cmp_select;
          Alcotest.test_case "clamp" `Quick test_op_clamp;
          Alcotest.test_case "iter/const/route" `Quick test_op_iter_const_route;
          Alcotest.test_case "memory semantics" `Quick test_op_memory_semantics;
          Alcotest.test_case "arity mismatch" `Quick test_op_arity_mismatch;
          Alcotest.test_case "mem predicates" `Quick test_op_mem_predicates;
        ] );
      ( "graph",
        [
          Alcotest.test_case "create" `Quick test_graph_create;
          Alcotest.test_case "rejects missing operand" `Quick
            test_graph_rejects_missing_operand;
          Alcotest.test_case "rejects duplicate operand" `Quick
            test_graph_rejects_duplicate_operand;
          Alcotest.test_case "rejects bad operand index" `Quick
            test_graph_rejects_bad_operand_index;
          Alcotest.test_case "rejects out of range" `Quick test_graph_rejects_out_of_range;
          Alcotest.test_case "rejects negative distance" `Quick
            test_graph_rejects_negative_distance;
          Alcotest.test_case "rejects zero-distance cycle" `Quick
            test_graph_rejects_zero_distance_cycle;
          Alcotest.test_case "accepts carried cycle" `Quick test_graph_accepts_carried_cycle;
          Alcotest.test_case "topo order" `Quick test_graph_topo_order;
          Alcotest.test_case "preds sorted" `Quick test_graph_preds_sorted;
          Alcotest.test_case "max distance" `Quick test_graph_max_distance;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "arity check" `Quick test_builder_arity_check;
          Alcotest.test_case "defer cycle" `Quick test_builder_defer_cycle;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "res_mii" `Quick test_analysis_res_mii;
          Alcotest.test_case "rec_mii" `Quick test_analysis_rec_mii;
          Alcotest.test_case "feasible_ii" `Quick test_analysis_feasible;
          Alcotest.test_case "asap/height" `Quick test_analysis_asap_height;
          Alcotest.test_case "sccs" `Quick test_analysis_sccs;
          Alcotest.test_case "rec_mii_with ordering" `Quick test_analysis_rec_mii_with;
        ] );
      ( "memdep",
        [
          Alcotest.test_case "load/load free" `Quick test_memdep_load_load;
          Alcotest.test_case "anti dependence" `Quick test_memdep_anti_dependence;
          Alcotest.test_case "true dependence" `Quick test_memdep_true_dependence;
          Alcotest.test_case "different arrays" `Quick test_memdep_different_arrays;
          Alcotest.test_case "disjoint lattices" `Quick test_memdep_non_intersecting;
          Alcotest.test_case "stride 0 pair" `Quick test_memdep_stride0;
          Alcotest.test_case "dynamic conservative" `Quick test_memdep_dynamic_conservative;
          Alcotest.test_case "no self constraint" `Quick test_memdep_self_free;
        ] );
      ( "memory",
        [
          Alcotest.test_case "basics" `Quick test_memory_basics;
          Alcotest.test_case "duplicate" `Quick test_memory_duplicate;
          Alcotest.test_case "copy isolation" `Quick test_memory_copy_isolated;
          Alcotest.test_case "diff" `Quick test_memory_diff;
        ] );
      ( "interp",
        [
          Alcotest.test_case "chain" `Quick test_interp_chain;
          Alcotest.test_case "carried initial zero" `Quick test_interp_carried_initial_zero;
          Alcotest.test_case "history" `Quick test_interp_history;
          Alcotest.test_case "determinism" `Quick test_interp_determinism;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_export ]);
      ( "synthetic",
        [
          Alcotest.test_case "valid and deterministic" `Quick
            test_synthetic_valid_and_deterministic;
          QCheck_alcotest.to_alcotest prop_synthetic_recurrence;
        ] );
    ]
