open Cgra_arch
open Cgra_mapper
open Cgra_isa

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let map_ok kind a g =
  match Scheduler.map kind a g with
  | Ok m -> m
  | Error e -> Alcotest.failf "map: %s" e

(* ---------- Regalloc ---------- *)

let test_regalloc_values () =
  let k = Cgra_kernels.Kernels.find_exn "laplace" in
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  let values = Regalloc.values_of_mapping m in
  Alcotest.(check bool) "some values" true (List.length values > 5);
  List.iter
    (fun (v : Regalloc.value) ->
      Alcotest.(check bool) "last >= born" true (v.last >= v.born))
    values

let test_regalloc_allocates_suite () =
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok Paged (arch 4 4) k.graph in
      match Regalloc.allocate m with
      | Ok ra ->
          Alcotest.(check bool) (k.name ^ " within capacity") true
            (List.for_all (fun (_, n) -> n <= ra.capacity) (Regalloc.pressure ra))
      | Error e -> Alcotest.failf "%s: %s" k.name e)
    Cgra_kernels.Kernels.all

(* The allocator's own invariant, checked directly: no two value
   instances of one PE ever occupy the same physical register while both
   are live.  We brute-force a window of iterations. *)
let test_regalloc_no_physical_clash () =
  let k = Cgra_kernels.Kernels.find_exn "swim" in
  let m = map_ok Paged (arch 4 4) k.graph in
  match Regalloc.allocate m with
  | Error e -> Alcotest.fail e
  | Ok ra ->
      let cap = ra.capacity in
      let by_pe = Hashtbl.create 16 in
      List.iter
        (fun (v : Regalloc.value) ->
          Hashtbl.replace by_pe v.pe (v :: Option.value ~default:[] (Hashtbl.find_opt by_pe v.pe)))
        ra.values;
      Hashtbl.iter
        (fun _ values ->
          (* occupancy.(phys) per cycle over a window *)
          let horizon = 12 * m.ii in
          for cycle = 0 to horizon do
            let holders = Hashtbl.create 8 in
            List.iter
              (fun (v : Regalloc.value) ->
                let o = Option.get (Regalloc.offset ra v.key) in
                (* every iteration instance alive at [cycle] *)
                let rec each i =
                  let b = v.born + (i * m.ii) and l = v.last + (i * m.ii) in
                  if b > cycle then ()
                  else begin
                    (if cycle <= l then
                       let phys = (o + (v.born / m.ii) + i) mod cap in
                       match Hashtbl.find_opt holders phys with
                       | Some other when other <> v.key ->
                           Alcotest.failf "physical clash at cycle %d" cycle
                       | Some _ | None -> Hashtbl.replace holders phys v.key);
                    each (i + 1)
                  end
                in
                each 0)
              values
          done)
        by_pe

let test_regalloc_overflow_detected () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let tiny = Cgra.make ~rf_capacity:1 pages in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  (* mapping onto generous arch, then re-bind to a 1-register fabric *)
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  let m = { m with Mapping.arch = tiny } in
  match Regalloc.allocate m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "1-register file cannot hold sobel"

let test_logical_for_read_rotation () =
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  match Regalloc.allocate m with
  | Error e -> Alcotest.fail e
  | Ok ra ->
      (* same-stage read names the value's own offset *)
      let v = List.hd ra.values in
      let o = Option.get (Regalloc.offset ra v.Regalloc.key) in
      Alcotest.(check (option int)) "same stage" (Some o)
        (Regalloc.logical_for_read ra ~ii:m.ii ~holder_born:v.Regalloc.born
           ~read_time:v.Regalloc.born v.Regalloc.key);
      (* one stage later, the logical name shifts back by one *)
      let expect = ((o - 1) mod ra.capacity + ra.capacity) mod ra.capacity in
      Alcotest.(check (option int)) "one rotation" (Some expect)
        (Regalloc.logical_for_read ra ~ii:m.ii ~holder_born:v.Regalloc.born
           ~read_time:(v.Regalloc.born + m.ii) v.Regalloc.key)

(* ---------- Config ---------- *)

let test_config_encode_suite () =
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok Paged (arch 4 4) k.graph in
      match Config.encode m with
      | Ok img ->
          let non_const =
            List.length
              (List.filter
                 (fun (n : Cgra_dfg.Graph.node) ->
                   match n.op with Cgra_dfg.Op.Const _ -> false | _ -> true)
                 (Cgra_dfg.Graph.nodes k.graph))
          in
          Alcotest.(check bool)
            (k.name ^ " contexts cover ops and hops")
            true
            (Config.context_count img >= non_const);
          Alcotest.(check int) (k.name ^ " words") (16 * img.Config.ii)
            (Config.words img)
      | Error e -> Alcotest.failf "%s: %s" k.name e)
    Cgra_kernels.Kernels.all

let test_config_disassembly () =
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  let img = Result.get_ok (Config.encode m) in
  let s = Format.asprintf "%a" Config.pp img in
  Alcotest.(check bool) "mentions PEs" true (String.length s > 50)

(* context images survive the wire codec byte-for-byte, and the decoded
   image drives the executor to the same result as the original *)
let test_config_codec_roundtrip () =
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok Paged (arch 4 4) k.graph in
      let img = Result.get_ok (Config.encode m) in
      let bytes = Codec.config_bytes img in
      match Codec.config_of_bytes bytes with
      | Error e -> Alcotest.failf "%s decode: %s" k.name e
      | Ok img' ->
          Alcotest.(check bool)
            (k.name ^ " re-encode is byte-identical")
            true
            (Codec.config_bytes img' = bytes);
          let mem = Cgra_kernels.Kernels.init_memory k in
          let mem' = Cgra_dfg.Memory.copy mem in
          let rep = Exec_image.run img mem ~iterations:8 in
          let rep' = Exec_image.run img' mem' ~iterations:8 in
          Alcotest.(check bool) (k.name ^ " same report") true (rep = rep');
          Alcotest.(check bool)
            (k.name ^ " same memory")
            true
            (Cgra_dfg.Memory.diff mem mem' = []))
    Cgra_kernels.Kernels.all

let test_config_codec_rejects_garbage () =
  let k = Cgra_kernels.Kernels.find_exn "sor" in
  let m = map_ok Paged (arch 4 4) k.graph in
  let good = Codec.config_bytes (Result.get_ok (Config.encode m)) in
  (* a header whose rows * cols wraps: to 0 (2^32 x 2^32), or negative *)
  let header ~rows ~cols =
    let b = Buffer.create 16 in
    List.iter (Codec.Wire.w_int b) [ 1; rows; cols; 1 ];
    Buffer.contents b
  in
  List.iter
    (fun bytes ->
      match Codec.config_of_bytes bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded %d hostile bytes" (String.length bytes))
    [
      "";
      "\001";
      String.sub good 0 (String.length good / 3);
      String.sub good 0 (String.length good - 1);
      good ^ "\000";
      header ~rows:(1 lsl 32) ~cols:(1 lsl 32);
      header ~rows:(1 lsl 31) ~cols:((1 lsl 31) + 1);
    ]

(* ---------- Exec_image: the decoder machine vs the oracle ---------- *)

let test_image_runs_suite kind () =
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok kind (arch 4 4) k.graph in
      let mem = Cgra_kernels.Kernels.init_memory k in
      match Exec_image.check m mem ~iterations:24 with
      | Ok r ->
          Alcotest.(check bool) (k.name ^ " fired contexts") true (r.fired > 0)
      | Error es -> Alcotest.failf "%s: %s" k.name (List.hd es))
    Cgra_kernels.Kernels.all

let test_image_runs_folded () =
  List.iter
    (fun name ->
      let k = Cgra_kernels.Kernels.find_exn name in
      let m = map_ok Paged (arch 4 4) k.graph in
      let rec ladder t =
        if t >= 1 then begin
          (match Cgra_core.Transform.fold ~target_pages:t m with
          | Ok sh when sh.pe_exact -> (
              let mem = Cgra_kernels.Kernels.init_memory k in
              match Exec_image.check sh.mapping mem ~iterations:16 with
              | Ok _ -> ()
              | Error es -> Alcotest.failf "%s fold%d: %s" name t (List.hd es))
          | Ok _ | Error _ -> ());
          ladder (t / 2)
        end
      in
      ladder (Mapping.n_pages_used m))
    [ "mpeg"; "sor"; "swim"; "histeq" ]

let test_image_zero_iterations () =
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  let img = Result.get_ok (Config.encode m) in
  let r = Exec_image.run img (Cgra_kernels.Kernels.init_memory k) ~iterations:0 in
  Alcotest.(check int) "no cycles" 0 r.cycles;
  Alcotest.(check int) "nothing fired" 0 r.fired

let test_image_squashes_prologue () =
  (* a pipelined schedule has stage > 0 somewhere, so the first cycles
     must squash *)
  let k = Cgra_kernels.Kernels.find_exn "yuv2rgb" in
  let m = map_ok Unconstrained (arch 4 4) k.graph in
  let img = Result.get_ok (Config.encode m) in
  let r = Exec_image.run img (Cgra_kernels.Kernels.init_memory k) ~iterations:8 in
  Alcotest.(check bool) "squashed prologue/epilogue slots" true (r.squashed > 0)

let prop_image_synthetic =
  QCheck.Test.make ~name:"synthetic kernels encode and execute bit-exact" ~count:15
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = 9 + (seed mod 8);
          mem_fraction = 0.3;
          recurrence = seed mod 3 = 0;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map Paged (arch 4 4) g with
      | Error _ -> false
      | Ok m -> (
          let mem = Cgra_kernels.Synthetic.memory_for ~seed g in
          match Exec_image.check m mem ~iterations:10 with
          | Ok _ -> true
          | Error _ -> false))

let () =
  Alcotest.run "isa"
    [
      ( "regalloc",
        [
          Alcotest.test_case "values of mapping" `Quick test_regalloc_values;
          Alcotest.test_case "allocates the suite" `Quick test_regalloc_allocates_suite;
          Alcotest.test_case "no physical clash" `Quick test_regalloc_no_physical_clash;
          Alcotest.test_case "overflow detected" `Quick test_regalloc_overflow_detected;
          Alcotest.test_case "rotation correction" `Quick test_logical_for_read_rotation;
        ] );
      ( "config",
        [
          Alcotest.test_case "encode suite" `Quick test_config_encode_suite;
          Alcotest.test_case "disassembly" `Quick test_config_disassembly;
          Alcotest.test_case "wire codec roundtrip" `Quick
            test_config_codec_roundtrip;
          Alcotest.test_case "wire codec rejects garbage" `Quick
            test_config_codec_rejects_garbage;
        ] );
      ( "exec-image",
        [
          Alcotest.test_case "baseline suite vs oracle" `Quick
            (test_image_runs_suite Scheduler.Unconstrained);
          Alcotest.test_case "paged suite vs oracle" `Quick
            (test_image_runs_suite Scheduler.Paged);
          Alcotest.test_case "folded schedules" `Quick test_image_runs_folded;
          Alcotest.test_case "zero iterations" `Quick test_image_zero_iterations;
          Alcotest.test_case "squashes prologue" `Quick test_image_squashes_prologue;
          QCheck_alcotest.to_alcotest prop_image_synthetic;
        ] );
    ]
