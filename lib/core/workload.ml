let generate ~seed ~n_threads ~cgra_need ~suite ?(segments_per_thread = 6) () =
  if not (cgra_need > 0.0 && cgra_need < 1.0) then
    invalid_arg "Workload.generate: cgra_need must be in (0, 1)";
  if suite = [] then invalid_arg "Workload.generate: empty suite";
  let root = Cgra_util.Rng.create ~seed in
  let binaries = Array.of_list suite in
  let make_thread id =
    let rng = Cgra_util.Rng.split root in
    let segments = ref [] in
    for _ = 1 to segments_per_thread do
      let b = Cgra_util.Rng.choose rng binaries in
      let iterations = Cgra_util.Rng.int_in rng 30 120 in
      let kernel_cycles = iterations * Binary.ii_base b in
      let ratio = (1.0 -. cgra_need) /. cgra_need in
      (* +/- 25% jitter on the CPU phase, mean preserved across segments *)
      let jitter = 0.75 +. Cgra_util.Rng.float rng 0.5 in
      let cpu = int_of_float (float_of_int kernel_cycles *. ratio *. jitter) in
      if cpu > 0 then segments := Thread_model.Cpu cpu :: !segments;
      segments :=
        Thread_model.Kernel { kernel = b.Binary.name; iterations } :: !segments
    done;
    { Thread_model.id; segments = List.rev !segments }
  in
  List.init n_threads make_thread
