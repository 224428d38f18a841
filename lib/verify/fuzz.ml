open Cgra_arch
open Cgra_mapper
open Cgra_core

let fabrics = [| (4, 4); (4, 2); (6, 8) |]

let harness ~iterations =
  if iterations < 1 then invalid_arg "Fuzz.harness: iterations < 1";
  let one_case seed =
    let mapped = ref 0 in
    let folds = ref 0 in
    let nonzero = ref 0 in
    let refolds = ref 0 in
    let oracle_runs = ref 0 in
    let failures = ref [] in
    (* the bytes of every mapping the case built: the source mapping, then
       each fold in the order it ran *)
    let built = Buffer.create 4096 in
    let keep (q : Mapping.t) = Buffer.add_string built (Cgra_isa.Codec.mapping_bytes q) in
    let rng = Cgra_util.Rng.create ~seed in
    let size, page_pes = Cgra_util.Rng.choose rng fabrics in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          failures :=
            Printf.sprintf "seed %d (%dx%d p%d): %s" seed size size page_pes s
            :: !failures)
        fmt
    in
    let arch = Option.get (Cgra.standard ~size ~page_pes) in
    let cfg =
      {
        Cgra_kernels.Synthetic.n_ops = Cgra_util.Rng.int_in rng 8 15;
        mem_fraction = 0.15 +. Cgra_util.Rng.float rng 0.15;
        recurrence = Cgra_util.Rng.bool rng;
      }
    in
    let g = Cgra_kernels.Synthetic.generate ~seed cfg in
    (match Scheduler.map ~seed Scheduler.Paged arch g with
    | Error _ -> () (* a capacity miss, not an invariant failure *)
    | Ok m -> (
        incr mapped;
        keep m;
        let mem = Cgra_kernels.Synthetic.memory_for ~seed g in
        let verify_and_simulate ~what ~check_mem q =
          (match Verify.mapping ~check_mem q with
          | Ok () -> ()
          | Error es -> fail "%s violates invariants: %s" what (String.concat "; " es));
          incr oracle_runs;
          match Cgra_sim.Check.against_oracle q mem ~iterations with
          | Ok () -> ()
          | Error es -> fail "%s diverges from oracle: %s" what (List.hd es)
        in
        verify_and_simulate ~what:"source mapping" ~check_mem:true m;
        let n = Mapping.n_pages_used m in
        let total = Cgra.n_pages arch in
        (* fold to every target at every feasible base *)
        for target = 1 to n do
          let m_eff = min target n in
          for base = 0 to total - m_eff do
            match Transform.fold ~base_page:base ~target_pages:target m with
            | Error e -> fail "fold target %d base %d refused: %s" target base e
            | Ok sh ->
                incr folds;
                keep sh.Transform.mapping;
                if base > 0 then incr nonzero;
                let expect = Transform.ii_q ~ii_p:m.ii ~n_used:n ~target_pages:target in
                if sh.Transform.mapping.ii <> expect then
                  fail "fold target %d base %d: II %d, law says %d" target base
                    sh.Transform.mapping.ii expect;
                if sh.Transform.pe_exact then
                  verify_and_simulate
                    ~what:(Printf.sprintf "fold target %d base %d" target base)
                    ~check_mem:false sh.Transform.mapping
          done
        done;
        (* relocate to a non-zero base, re-mark paged, fold again: the
           regression class where length-n arrays met absolute page ids *)
        if Page.is_rect arch.Cgra.pages && Page.is_square_tile arch.Cgra.pages
           && total > n
        then begin
          let b = Cgra_util.Rng.int_in rng 1 (total - n) in
          match Transform.fold ~base_page:b ~target_pages:n m with
          | Error e -> fail "relocation to base %d refused: %s" b e
          | Ok sh when not sh.Transform.pe_exact ->
              fail "relocation to base %d not PE-exact on square tiles" b
          | Ok sh -> (
              incr refolds;
              keep sh.Transform.mapping;
              let relocated = { sh.Transform.mapping with Mapping.paged = true } in
              (match Verify.mapping relocated with
              | Ok () -> ()
              | Error es ->
                  fail "relocated mapping at base %d invalid: %s" b
                    (String.concat "; " es));
              match Transform.fold ~target_pages:1 relocated with
              | Error e -> fail "refold from base %d refused: %s" b e
              | Ok sh2 ->
                  incr folds;
                  keep sh2.Transform.mapping;
                  let expect = Transform.ii_q ~ii_p:relocated.Mapping.ii ~n_used:n ~target_pages:1 in
                  if sh2.Transform.mapping.ii <> expect then
                    fail "refold from base %d: II %d, law says %d" b
                      sh2.Transform.mapping.ii expect;
                  if sh2.Transform.pe_exact then
                    verify_and_simulate
                      ~what:(Printf.sprintf "refold from base %d" b)
                      ~check_mem:false sh2.Transform.mapping)
        end));
    {
      Cgra_util.Corpus.counts =
        [
          ("mapped", !mapped);
          ("folds", !folds);
          ("folds at base > 0", !nonzero);
          ("refolds", !refolds);
          ("oracle runs", !oracle_runs);
        ];
      failures = List.rev !failures;
      digest = Digest.string (Buffer.contents built);
    }
  in
  {
    Cgra_util.Corpus.name = "pipeline";
    counters =
      [ "mapped"; "folds"; "folds at base > 0"; "refolds"; "oracle runs" ];
    case = one_case;
  }
