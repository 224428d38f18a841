type fig8_row = {
  kernel : string;
  ii_base : int;
  ii_paged : int;
  pages_used : int;
  performance_pct : float;
}

type fig8 = {
  size : int;
  page_pes : int;
  rows : fig8_row list;
  geomean_pct : float;
}

let cgra_sizes = [ 4; 6; 8 ]

let page_sizes = [ 2; 4; 8 ]

(* Independent tasks fanned out across [pool]; no pool is a one-domain
   pool, which runs them in order on the calling domain.  The maps keep
   input order over per-task seeds, so figures are byte-identical at any
   width. *)
let pool_or_one = function
  | Some p -> p
  | None -> Cgra_util.Pool.create ~domains:1 ()

let pmap pool f xs = Cgra_util.Pool.map (pool_or_one pool) f xs

let pfilter_map pool f xs = Cgra_util.Pool.filter_map (pool_or_one pool) f xs

let arch_for ~size ~page_pes =
  match Cgra_arch.Cgra.standard ~size ~page_pes with
  | Some arch -> Ok arch
  | None ->
      Error
        (Printf.sprintf
           "%dx%d with %d-PE pages leaves fewer than two pages (no multithreading \
            potential)"
           size size page_pes)

let fig8 ?(seed = 0) ?pool ~size ~page_pes () =
  match arch_for ~size ~page_pes with
  | Error _ as e -> e
  | Ok arch -> (
      match Binary.compile_suite ~seed ?pool arch with
      | Error e -> Error e
      | Ok suite ->
          let rows =
            List.map
              (fun (b : Binary.t) ->
                {
                  kernel = b.name;
                  ii_base = Binary.ii_base b;
                  ii_paged = Binary.ii_paged b;
                  pages_used = Binary.pages_used b;
                  performance_pct =
                    100.0 *. float_of_int (Binary.ii_base b)
                    /. float_of_int (Binary.ii_paged b);
                })
              suite
          in
          let geomean_pct =
            Cgra_util.Stats.geomean (List.map (fun r -> r.performance_pct) rows)
          in
          Ok { size; page_pes; rows; geomean_pct })

let fig8_all ?(seed = 0) ?pool ~size () =
  List.filter_map
    (fun page_pes -> Result.to_option (fig8 ~seed ?pool ~size ~page_pes ()))
    page_sizes

type fig9_point = {
  n_threads : int;
  improvement_pct : float;
  ipc_single : float;
  ipc_multi : float;
  utilization_single : float;
  utilization_multi : float;
  stalls : int;
  transformations : int;
}

type fig9_series = { cgra_need : float; points : fig9_point list }

type fig9 = { size : int; page_pes : int; series : fig9_series list }

let thread_counts = [ 1; 2; 4; 8; 16 ]

let cgra_needs = [ 0.5; 0.75; 0.875 ]

let fig9 ?(seed = 0) ?(replicates = 3) ?pool ~size ~page_pes () =
  match arch_for ~size ~page_pes with
  | Error _ as e -> e
  | Ok arch -> (
      match Binary.compile_suite ~seed ?pool arch with
      | Error e -> Error e
      | Ok suite ->
          let total_pages = Cgra_arch.Cgra.n_pages arch in
          let one cgra_need n_threads rep =
            let threads =
              Workload.generate
                ~seed:(seed + (1009 * rep) + (31 * n_threads))
                ~n_threads ~cgra_need ~suite ()
            in
            let run mode = Os_sim.run { suite; threads; total_pages; mode } in
            let s = run Os_sim.Single and m = run Os_sim.Multi in
            (Os_sim.improvement_percent ~single:s ~multi:m, s, m)
          in
          (* the whole (cgra_need, n_threads, replicate) grid as one flat
             task list; each task's seed depends only on its coordinates,
             and regrouping below restores the sequential accumulation
             order exactly *)
          let tasks =
            List.concat_map
              (fun cgra_need ->
                List.concat_map
                  (fun n_threads ->
                    List.init replicates (fun rep -> (cgra_need, n_threads, rep)))
                  thread_counts)
              cgra_needs
          in
          let results =
            Array.of_list
              (pmap pool (fun (need, n_threads, rep) -> one need n_threads rep) tasks)
          in
          let n_counts = List.length thread_counts in
          let point need_i nt_i n_threads =
            let runs =
              List.init replicates (fun rep ->
                  results.((((need_i * n_counts) + nt_i) * replicates) + rep))
            in
            let mean f = Cgra_util.Stats.mean (List.map f runs) in
            {
              n_threads;
              improvement_pct = mean (fun (i, _, _) -> i);
              ipc_single = mean (fun (_, s, _) -> s.Os_sim.ipc);
              ipc_multi = mean (fun (_, _, m) -> m.Os_sim.ipc);
              utilization_single = mean (fun (_, s, _) -> s.Os_sim.page_utilization);
              utilization_multi = mean (fun (_, _, m) -> m.Os_sim.page_utilization);
              stalls =
                List.fold_left (fun acc (_, _, m) -> acc + m.Os_sim.stalls) 0 runs;
              transformations =
                List.fold_left
                  (fun acc (_, _, m) -> acc + m.Os_sim.transformations)
                  0 runs;
            }
          in
          let series =
            List.mapi
              (fun need_i cgra_need ->
                {
                  cgra_need;
                  points =
                    List.mapi
                      (fun nt_i n_threads -> point need_i nt_i n_threads)
                      thread_counts;
                })
              cgra_needs
          in
          Ok { size; page_pes; series })

let fig9_all ?(seed = 0) ?(replicates = 3) ?pool ~size () =
  List.filter_map
    (fun page_pes ->
      Result.to_option (fig9 ~seed ~replicates ?pool ~size ~page_pes ()))
    page_sizes

let render_fig8 (f : fig8) =
  let header = [ "kernel"; "II_base"; "II_paged"; "pages"; "performance" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.kernel;
          string_of_int r.ii_base;
          string_of_int r.ii_paged;
          string_of_int r.pages_used;
          Cgra_util.Table.fmt_percent r.performance_pct;
        ])
      f.rows
    @ [ [ "geomean"; ""; ""; ""; Cgra_util.Table.fmt_percent f.geomean_pct ] ]
  in
  Printf.sprintf "Fig. 8 — %dx%d CGRA, %d-PE pages (constrained vs baseline II)\n%s"
    f.size f.size f.page_pes
    (Cgra_util.Table.render ~header rows)

(* ----- ablations ----- *)

type ablation_row = { label : string; metrics : (string * float) list }

let improvement_at ~suite ~total_pages ~seed ?policy ?reconfig_cost n_threads =
  let replicates = 2 in
  let one rep =
    let threads =
      Workload.generate ~seed:(seed + (1009 * rep) + (31 * n_threads)) ~n_threads
        ~cgra_need:0.875 ~suite ()
    in
    let s = Os_sim.run { suite; threads; total_pages; mode = Os_sim.Single } in
    let m = Os_sim.run ?policy ?reconfig_cost { suite; threads; total_pages; mode = Os_sim.Multi } in
    (Os_sim.improvement_percent ~single:s ~multi:m, m.Os_sim.transformations)
  in
  let runs = List.init replicates one in
  ( Cgra_util.Stats.mean (List.map (fun (i, _) -> i) runs),
    List.fold_left (fun acc (_, t) -> acc + t) 0 runs )

let ablation_reconfig_cost ?(seed = 0) ?pool ~size ~page_pes ~costs () =
  match arch_for ~size ~page_pes with
  | Error _ as e -> e
  | Ok arch -> (
      match Binary.compile_suite ~seed ?pool arch with
      | Error e -> Error e
      | Ok suite ->
          let total_pages = Cgra_arch.Cgra.n_pages arch in
          (* (cost, thread count) cells fan out; rows regroup in order *)
          let cells =
            pmap pool
              (fun (cost, n_threads) ->
                fst
                  (improvement_at ~suite ~total_pages ~seed
                     ~reconfig_cost:(float_of_int cost) n_threads))
              (List.concat_map (fun c -> [ (c, 8); (c, 16) ]) costs)
          in
          let cells = Array.of_list cells in
          Ok
            (List.mapi
               (fun i cost ->
                 {
                   label = Printf.sprintf "%d cycles/reshape" cost;
                   metrics =
                     [
                       ("T8 improvement %", cells.(2 * i));
                       ("T16 improvement %", cells.((2 * i) + 1));
                     ];
                 })
               costs))

let ablation_policy ?(seed = 0) ?pool ~size ~page_pes () =
  match arch_for ~size ~page_pes with
  | Error _ as e -> e
  | Ok arch -> (
      match Binary.compile_suite ~seed ?pool arch with
      | Error e -> Error e
      | Ok suite ->
          let total_pages = Cgra_arch.Cgra.n_pages arch in
          let policies =
            [
              ("halving (paper)", Allocator.Halving);
              ("equal repack", Allocator.Repack_equal);
            ]
          in
          let cells =
            pmap pool
              (fun (policy, n_threads) ->
                improvement_at ~suite ~total_pages ~seed ~policy n_threads)
              (List.concat_map (fun (_, p) -> [ (p, 8); (p, 16) ]) policies)
          in
          let cells = Array.of_list cells in
          Ok
            (List.mapi
               (fun i (label, _) ->
                 let i8, t8 = cells.(2 * i) in
                 let i16, t16 = cells.((2 * i) + 1) in
                 {
                   label;
                   metrics =
                     [
                       ("T8 improvement %", i8);
                       ("T16 improvement %", i16);
                       ("T8 reshapes", float_of_int t8);
                       ("T16 reshapes", float_of_int t16);
                     ];
                 })
               policies))

let ablation_mem_ports ?(seed = 0) ?pool ~size ~page_pes ~ports () =
  match Cgra_arch.Cgra.standard ~size ~page_pes with
  | None -> Error "unsupported configuration"
  | Some standard ->
      let rows =
        pfilter_map pool
          (fun p ->
            let arch = Cgra_arch.Cgra.make ~mem_ports_per_row:p standard.pages in
            match Binary.compile_suite ~seed arch with
            | Error _ -> None
            | Ok suite ->
                let perf =
                  Cgra_util.Stats.geomean
                    (List.map
                       (fun (b : Binary.t) ->
                         100.0 *. float_of_int (Binary.ii_base b)
                         /. float_of_int (Binary.ii_paged b))
                       suite)
                in
                Some
                  {
                    label = Printf.sprintf "%d port(s)/row" p;
                    metrics = [ ("Fig.8 geomean %", perf) ];
                  })
          ports
      in
      Ok rows

let render_ablation ~title rows =
  match rows with
  | [] -> title ^ ": (no rows)"
  | first :: _ ->
      let header = "" :: List.map fst first.metrics in
      let body =
        List.map
          (fun r -> r.label :: List.map (fun (_, v) -> Printf.sprintf "%.1f" v) r.metrics)
          rows
      in
      Printf.sprintf "%s\n%s" title (Cgra_util.Table.render ~header body)

let render_fig9 (f : fig9) =
  let header =
    [ "need"; "threads"; "improvement"; "IPC single"; "IPC multi"; "util multi";
      "stalls"; "transforms" ]
  in
  let rows =
    List.concat_map
      (fun s ->
        List.map
          (fun p ->
            [
              Printf.sprintf "%.1f%%" (100.0 *. s.cgra_need);
              string_of_int p.n_threads;
              Cgra_util.Table.fmt_percent p.improvement_pct;
              Cgra_util.Table.fmt_float ~decimals:2 p.ipc_single;
              Cgra_util.Table.fmt_float ~decimals:2 p.ipc_multi;
              Cgra_util.Table.fmt_percent (100.0 *. p.utilization_multi);
              string_of_int p.stalls;
              string_of_int p.transformations;
            ])
          s.points)
      f.series
  in
  Printf.sprintf
    "Fig. 9 — %dx%d CGRA, %d-PE pages (multithreaded vs single-threaded)\n%s" f.size
    f.size f.page_pes
    (Cgra_util.Table.render ~header rows)
