(* Command-line front end: explore kernels, map them, shrink schedules with
   the PageMaster transformation, simulate, and regenerate the paper's
   figures. *)

open Cmdliner
open Cgra_arch
open Cgra_dfg
open Cgra_mapper
open Cgra_core

(* ----- shared arguments ----- *)

let kernel_arg =
  let doc = "Kernel name (see the kernels command)." in
  Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~docv:"NAME" ~doc)

let size_arg =
  let doc = "CGRA size (4, 6, or 8 for a size x size mesh)." in
  Arg.(value & opt int 4 & info [ "s"; "size" ] ~docv:"N" ~doc)

let page_arg =
  let doc = "PEs per page (2, 4, or 8)." in
  Arg.(value & opt int 4 & info [ "p"; "page-size" ] ~docv:"PES" ~doc)

let seed_arg =
  let doc = "Random seed for the compiler and workloads." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let iters_arg =
  let doc = "Loop iterations to simulate." in
  Arg.(value & opt int 32 & info [ "i"; "iterations" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Worker domains for the parallel sections (figure sweeps, fuzz corpora, \
     and the compiler's speculative II/attempt race).  Output is \
     byte-identical at any width.  Default: the $(b,CGRA_DOMAINS) \
     environment variable, or 1 (sequential)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N" ~doc)

let arch_of ~size ~page_pes =
  match Cgra.standard ~size ~page_pes with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf
           "%dx%d with %d-PE pages is not a supported configuration (fewer than four \
            pages)"
           size size page_pes)

let kernel_of name =
  match Cgra_kernels.Kernels.find name with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %s (known: %s)" name
           (String.concat ", " Cgra_kernels.Kernels.names))

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* ----- trace output helpers ----- *)

let write_file path data =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let trace_format ~format ~path =
  match format with
  | Some f -> f
  | None -> if Filename.check_suffix path ".jsonl" then `Jsonl else `Chrome

(* Serialize, self-validate with the project's own parser, and write. *)
let export_trace ~format ~path events =
  let fmt = trace_format ~format ~path in
  let data =
    match fmt with
    | `Jsonl -> Cgra_trace.Export.jsonl events
    | `Chrome -> Cgra_trace.Export.chrome events
  in
  (match fmt with
  | `Chrome -> (
      match Cgra_trace.Json.parse data with
      | Ok _ -> ()
      | Error e -> or_die (Error ("emitted Chrome trace is not valid JSON: " ^ e)))
  | `Jsonl ->
      List.iteri
        (fun i line ->
          if line <> "" then
            match Cgra_trace.Json.parse line with
            | Ok _ -> ()
            | Error e ->
                or_die
                  (Error (Printf.sprintf "emitted JSONL line %d is invalid: %s" (i + 1) e)))
        (String.split_on_char '\n' data));
  write_file path data;
  Printf.printf "wrote %s (%s, %d events, kinds: %s)\n" path
    (match fmt with
    | `Jsonl -> "JSONL"
    | `Chrome -> "Chrome trace_event; open in https://ui.perfetto.dev")
    (List.length events)
    (String.concat ", " (Cgra_trace.Export.kinds events))

let format_arg =
  let doc =
    "Trace file format: $(b,chrome) (Perfetto-loadable trace_event JSON) or \
     $(b,jsonl) (one event object per line).  Default: by file extension \
     ($(b,.jsonl) means jsonl, anything else chrome)."
  in
  Arg.(
    value
    & opt (some (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ])) None
    & info [ "format" ] ~docv:"FMT" ~doc)

(* ----- kernels ----- *)

let cmd_kernels =
  let run () =
    let header = [ "kernel"; "ops"; "edges"; "mem"; "RecMII"; "description" ] in
    let rows =
      List.map
        (fun (k : Cgra_kernels.Kernels.t) ->
          [
            k.name;
            string_of_int (Graph.n_nodes k.graph);
            string_of_int (Graph.n_edges k.graph);
            string_of_int (Graph.mem_node_count k.graph);
            string_of_int (Analysis.rec_mii k.graph);
            k.description;
          ])
        Cgra_kernels.Kernels.all
    in
    print_endline
      (Cgra_util.Table.render
         ~align:[ Cgra_util.Table.Left; Right; Right; Right; Right; Left ]
         ~header rows)
  in
  Cmd.v (Cmd.info "kernels" ~doc:"List the benchmark kernel suite.")
    Term.(const run $ const ())

(* ----- map ----- *)

let cmd_map =
  let run kernel size page_pes seed paged show stats domains trace_out format =
    let arch = or_die (arch_of ~size ~page_pes) in
    let k = or_die (kernel_of kernel) in
    let kind = if paged then Scheduler.Paged else Scheduler.Unconstrained in
    let trace =
      match trace_out with
      | None -> Cgra_trace.Trace.null
      | Some _ -> Cgra_trace.Trace.make ()
    in
    let m =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Scheduler.map ~seed ~pool ~trace kind arch k.graph))
    in
    Format.printf "%a@." Mapping.pp_stats m;
    (match Mapping.validate m with
    | Ok () -> print_endline "validation: ok"
    | Error es -> List.iter (fun e -> print_endline ("VIOLATION: " ^ e)) es);
    if stats then begin
      print_newline ();
      print_string
        (Cgra_prof.Render.bus_pressure_text (Cgra_prof.Analyze.bus_pressure m))
    end;
    (match trace_out with
    | Some path -> export_trace ~format ~path (Cgra_trace.Trace.events trace)
    | None -> ());
    if show then begin
      Format.printf "@.%a" Mapping.pp m;
      Format.printf "@.page-level schedule:@.%a" Page_schedule.pp
        (Page_schedule.of_mapping m)
    end
  in
  let paged =
    Arg.(value & flag & info [ "paged" ] ~doc:"Apply the paging constraints.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print the placement grids.") in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the mapping's exact per-(row, slot) memory-port demand \
             table — what the bandwidth-aware scheduler's cost model sees.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the scheduler's speculative race (candidates launched, \
             cancelled, winner) to FILE.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Compile a kernel onto the CGRA and report II and placement.")
    Term.(
      const run $ kernel_arg $ size_arg $ page_arg $ seed_arg $ paged $ show
      $ stats $ domains_arg $ trace_out $ format_arg)

(* ----- shrink ----- *)

let cmd_shrink =
  let run kernel size page_pes seed target show domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    let k = or_die (kernel_of kernel) in
    let m =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Scheduler.map ~seed ~pool Scheduler.Paged arch k.graph))
    in
    Format.printf "original: %a@." Mapping.pp_stats m;
    let sh = or_die (Transform.fold ~target_pages:target m) in
    Format.printf "shrunk:   %a@." Mapping.pp_stats sh.mapping;
    Printf.printf "fold factor s = %d, II %d -> %d, PE-exact: %b\n" sh.s m.ii
      sh.mapping.ii sh.pe_exact;
    if sh.pe_exact then begin
      (match Mapping.validate ~check_mem:false sh.mapping with
      | Ok () -> print_endline "validation: ok"
      | Error es -> List.iter (fun e -> print_endline ("VIOLATION: " ^ e)) es);
      let mem = Cgra_kernels.Kernels.init_memory k in
      match Cgra_sim.Check.against_oracle sh.mapping mem ~iterations:32 with
      | Ok () -> print_endline "simulation vs oracle: bit-exact over 32 iterations"
      | Error es -> List.iter (fun e -> print_endline ("MISMATCH: " ^ e)) es
    end;
    if show then begin
      Format.printf "@.before:@.%a" Page_schedule.pp (Page_schedule.of_mapping m);
      Format.printf "@.after:@.%a" Page_schedule.pp
        (Page_schedule.of_mapping sh.mapping)
    end
  in
  let target =
    Arg.(
      required
      & opt (some int) None
      & info [ "m"; "target-pages" ] ~docv:"M" ~doc:"Pages to shrink to.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print page schedules.") in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:"Compile a kernel, then shrink it with the PageMaster transformation.")
    Term.(
      const run $ kernel_arg $ size_arg $ page_arg $ seed_arg $ target $ show
      $ domains_arg)

(* ----- simulate ----- *)

let cmd_simulate =
  let run kernel size page_pes seed paged iterations trace_out format domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    let k = or_die (kernel_of kernel) in
    let kind = if paged then Scheduler.Paged else Scheduler.Unconstrained in
    let m =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Scheduler.map ~seed ~pool kind arch k.graph))
    in
    let mem = Cgra_kernels.Kernels.init_memory k in
    let trace =
      match trace_out with
      | None -> Cgra_trace.Trace.null
      | Some _ -> Cgra_trace.Trace.make ()
    in
    let outcome = Cgra_sim.Check.against_oracle ~trace m mem ~iterations in
    (match trace_out with
    | Some path -> export_trace ~format ~path (Cgra_trace.Trace.events trace)
    | None -> ());
    match outcome with
    | Ok () ->
        Printf.printf
          "%s on %dx%d: %d iterations executed cycle-accurately, bit-exact vs the \
           sequential oracle (II=%d)\n"
          kernel size size iterations m.ii
    | Error es ->
        List.iter (fun e -> print_endline ("MISMATCH: " ^ e)) es;
        exit 1
  in
  let paged =
    Arg.(value & flag & info [ "paged" ] ~doc:"Use the paging-constrained compiler.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record the execution (spans, counters, violations) to FILE.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a mapped kernel cycle-accurately and compare with the oracle.")
    Term.(
      const run $ kernel_arg $ size_arg $ page_arg $ seed_arg $ paged $ iters_arg
      $ trace_out $ format_arg $ domains_arg)

(* ----- trace ----- *)

(* ----- OS-run arguments (shared by trace and profile) ----- *)

let mode_arg =
  let doc = "OS mode: $(b,single) (baseline) or $(b,multi) (the paper's system)." in
  Arg.(
    value
    & opt (enum [ ("single", Os_sim.Single); ("multi", Os_sim.Multi) ]) Os_sim.Multi
    & info [ "mode" ] ~docv:"MODE" ~doc)

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Thread count.")

let need_arg =
  Arg.(
    value & opt float 0.875
    & info [ "need" ] ~docv:"F" ~doc:"Fraction of time each thread wants the CGRA.")

let policy_arg =
  let doc =
    "Contention policy: $(b,halving) (the paper's), $(b,repack), or $(b,cost) \
     (reconfiguration-cost-aware halving)."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("halving", Allocator.Halving); ("repack", Allocator.Repack_equal);
             ("cost", Allocator.Cost_halving) ])
        Allocator.Halving
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let reconfig_cost_arg =
  Arg.(
    value & opt float 0.0
    & info [ "reconfig-cost" ] ~docv:"CYCLES"
        ~doc:"Cycles of stalled progress charged per PageMaster reshape.")

let cmd_trace =
  let run size page_pes seed mode threads need policy reconfig_cost out format
      domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    if threads < 1 then or_die (Error "--threads must be positive");
    if not (need > 0.0 && need < 1.0) then
      or_die (Error "--need must be in (0, 1)");
    if not (Float.is_finite reconfig_cost && reconfig_cost >= 0.0) then
      or_die (Error "--reconfig-cost must be a finite number >= 0");
    let suite =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Binary.compile_suite ~seed ~pool arch))
    in
    let total_pages = Cgra.n_pages arch in
    let workload =
      Workload.generate ~seed ~n_threads:threads ~cgra_need:need ~suite ()
    in
    let trace = Cgra_trace.Trace.make () in
    let r =
      Os_sim.run ~policy ~reconfig_cost ~trace
        { Os_sim.suite; threads = workload; total_pages; mode }
    in
    let events = Cgra_trace.Trace.events trace in
    Printf.printf
      "%s mode on %dx%d (%d pages), %d threads, need %.3f, seed %d:\n\
      \  makespan %.0f cycles, ipc %.2f, page utilization %.2f, %d \
       transformations, %d stalls\n"
      (match mode with Os_sim.Single -> "single" | Os_sim.Multi -> "multi")
      size size total_pages threads need seed r.Os_sim.makespan r.Os_sim.ipc
      r.Os_sim.page_utilization r.Os_sim.transformations r.Os_sim.stalls;
    let ws = Cgra_trace.Replay.wait_statistics events in
    if ws.Cgra_trace.Replay.n > 0 then
      Printf.printf "  waits: %d served, mean %.0f cycles, p95 %.0f, max %.0f\n"
        ws.Cgra_trace.Replay.n ws.Cgra_trace.Replay.mean
        ws.Cgra_trace.Replay.p95 ws.Cgra_trace.Replay.max;
    (* the trace must be a complete, invariant-respecting witness of the
       run before it is worth archiving *)
    (match
       Cgra_verify.Os_fuzz.monitor events
       @ Cgra_verify.Os_fuzz.replay_check r events
     with
    | [] ->
        print_endline
          "  replay: aggregates reproduced exactly from the event stream; OS \
           invariants hold"
    | es ->
        List.iter (fun e -> print_endline ("TRACE DEFECT: " ^ e)) es;
        exit 1);
    export_trace ~format ~path:out events
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the OS simulator with full event tracing, verify the trace is a \
          complete witness (replay + invariant monitor), and export it as a \
          Chrome/Perfetto trace or JSONL.")
    Term.(
      const run $ size_arg $ page_arg $ seed_arg $ mode_arg $ threads_arg
      $ need_arg $ policy_arg $ reconfig_cost_arg $ out $ format_arg
      $ domains_arg)

(* ----- profile ----- *)

let cmd_profile =
  let run file json out size page_pes seed mode threads need policy
      reconfig_cost mapping paged domains =
    match mapping with
    | Some kernel ->
        (* static single-mapping bus pressure: compile the kernel and
           report exact per-(row, slot) port demand — no OS run, no slab
           approximation *)
        let arch = or_die (arch_of ~size ~page_pes) in
        let k = or_die (kernel_of kernel) in
        let kind = if paged then Scheduler.Paged else Scheduler.Unconstrained in
        let m =
          Cgra_util.Pool.with_pool ?domains (fun pool ->
              or_die (Scheduler.map ~seed ~pool kind arch k.graph))
        in
        let b = Cgra_prof.Analyze.bus_pressure m in
        let doc =
          if json then begin
            let s = Cgra_prof.Render.bus_pressure_json_string b in
            (match Cgra_trace.Json.parse s with
            | Ok _ -> ()
            | Error e -> or_die (Error ("emitted bus-pressure JSON is invalid: " ^ e)));
            s
          end
          else Cgra_prof.Render.bus_pressure_text b
        in
        (match out with
        | None -> print_string doc
        | Some path ->
            write_file path doc;
            Printf.printf "wrote %s\n" path)
    | None ->
    let events =
      match file with
      | Some path ->
          (* post-hoc: analyze an archived JSONL trace; the stream is
             self-describing (geometry in run_begin), so no arch flags *)
          let data =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error e -> or_die (Error e)
          in
          or_die (Cgra_trace.Export.of_jsonl data)
      | None ->
          (* live: one traced OS run, same knobs as the trace command *)
          let arch = or_die (arch_of ~size ~page_pes) in
          if threads < 1 then or_die (Error "--threads must be positive");
          if not (need > 0.0 && need < 1.0) then
            or_die (Error "--need must be in (0, 1)");
          if not (Float.is_finite reconfig_cost && reconfig_cost >= 0.0) then
            or_die (Error "--reconfig-cost must be a finite number >= 0");
          let suite =
            Cgra_util.Pool.with_pool ?domains (fun pool ->
                or_die (Binary.compile_suite ~seed ~pool arch))
          in
          let total_pages = Cgra.n_pages arch in
          let workload =
            Workload.generate ~seed ~n_threads:threads ~cgra_need:need ~suite ()
          in
          let trace = Cgra_trace.Trace.make () in
          ignore
            (Os_sim.run ~policy ~reconfig_cost ~trace
               { Os_sim.suite; threads = workload; total_pages; mode });
          Cgra_trace.Trace.events trace
    in
    let report = or_die (Cgra_prof.Analyze.profile events) in
    let doc =
      if json then begin
        let s = Cgra_prof.Render.json_string report in
        (match Cgra_trace.Json.parse s with
        | Ok _ -> ()
        | Error e -> or_die (Error ("emitted profile JSON is invalid: " ^ e)));
        s
      end
      else Cgra_prof.Render.text report
    in
    match out with
    | None -> print_string doc
    | Some path ->
        write_file path doc;
        Printf.printf "wrote %s\n" path
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "JSONL trace to analyze post-hoc.  Omitted: run the OS simulator \
             live with the flags below and profile that run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the machine-readable report (stable, sorted keys).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the report to FILE.")
  in
  let mapping =
    Arg.(
      value
      & opt (some string) None
      & info [ "mapping" ] ~docv:"KERNEL"
          ~doc:
            "Instead of profiling an OS run, compile KERNEL and report its \
             mapping's exact per-(row, slot) memory-port demand table \
             (replaces the slab approximation for single-kernel questions).  \
             Honors --size, --page-size, --seed, --paged, --json, and -o.")
  in
  let paged =
    Arg.(
      value & flag
      & info [ "paged" ]
          ~doc:"With --mapping: use the paging-constrained compiler.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile an OS run: per-resident page-occupancy heatmap, row-bus \
          contention, per-thread stall attribution (queueing vs. reshape vs. \
          execution), reshape accounting, and segment-latency quantiles.  \
          Works post-hoc on a JSONL trace or live on a fresh simulated run.")
    Term.(
      const run $ file $ json $ out $ size_arg $ page_arg $ seed_arg $ mode_arg
      $ threads_arg $ need_arg $ policy_arg $ reconfig_cost_arg $ mapping
      $ paged $ domains_arg)

(* ----- greedy ----- *)

let cmd_greedy =
  let run n m ii iterations =
    let r = Greedy.run ~n ~m ~ii_p:ii ~iterations in
    Printf.printf
      "N=%d M=%d II_p=%d over %d kernel iterations:\n\
      \  steady-state II: %.2f (fold optimum %d)\n\
      \  cases: two-hop %d, one-hop %d, zero-hop %d, fallbacks %d\n\
      \  dependency violations: %d\n"
      n m ii iterations r.steady_ii
      (Transform.ii_q ~ii_p:ii ~n_used:n ~target_pages:m)
      r.case_two_hop r.case_one_hop r.case_zero_hop r.fallbacks r.dep_violations;
    (* first two page-iterations as a column/time diagram *)
    let show_step step =
      Printf.printf "  step %d:" step;
      Array.iteri
        (fun page (p : Greedy.placement) ->
          Printf.printf " p%d@(c%d,t%d)" page p.col p.time)
        r.place.(step);
      print_newline ()
    in
    show_step 0;
    if iterations * ii > 1 then show_step 1
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~docv:"N" ~doc:"Source pages.") in
  let m = Arg.(value & opt int 5 & info [ "m" ] ~docv:"M" ~doc:"Destination columns.") in
  let ii = Arg.(value & opt int 1 & info [ "ii" ] ~docv:"II" ~doc:"Source II.") in
  let iters =
    Arg.(value & opt int 20 & info [ "iterations" ] ~docv:"K" ~doc:"Kernel iterations.")
  in
  Cmd.v
    (Cmd.info "greedy"
       ~doc:"Run the paper's Algorithm 1 (greedy PlacePage) at page granularity.")
    Term.(const run $ n $ m $ ii $ iters)

(* ----- encode ----- *)

let cmd_encode =
  let run kernel size page_pes seed paged target domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    let k = or_die (kernel_of kernel) in
    let kind = if paged then Scheduler.Paged else Scheduler.Unconstrained in
    let m =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Scheduler.map ~seed ~pool kind arch k.graph))
    in
    let m =
      match target with
      | None -> m
      | Some t ->
          let sh = or_die (Transform.fold ~target_pages:t m) in
          if not sh.Transform.pe_exact then
            or_die (Error "fold is page-level only; cannot lower to contexts");
          sh.Transform.mapping
    in
    let img = or_die (Cgra_isa.Config.encode m) in
    Printf.printf
      "%s: II=%d, %d context words over %d slots, %d-register rotating files\n\n"
      kernel img.Cgra_isa.Config.ii
      (Cgra_isa.Config.context_count img)
      (Cgra_isa.Config.words img)
      img.Cgra_isa.Config.reg_capacity;
    Format.printf "%a" Cgra_isa.Config.pp img;
    let mem = Cgra_kernels.Kernels.init_memory k in
    let mem_ref = Cgra_dfg.Memory.copy mem in
    let report = Cgra_isa.Exec_image.run img mem ~iterations:32 in
    Interp.run k.graph mem_ref ~iterations:32;
    match Cgra_dfg.Memory.diff mem mem_ref with
    | [] ->
        Printf.printf
          "\ndecoder machine: %d cycles, %d firings, %d squashed - bit-exact vs the \
           oracle\n"
          report.cycles report.fired report.squashed
    | ds ->
        List.iter
          (fun (a, i, x, y) -> Printf.printf "MISMATCH %s[%d]: %d vs %d\n" a i x y)
          ds;
        exit 1
  in
  let paged =
    Arg.(value & flag & info [ "paged" ] ~doc:"Use the paging-constrained compiler.")
  in
  let target =
    Arg.(
      value
      & opt (some int) None
      & info [ "m"; "target-pages" ] ~docv:"M"
          ~doc:"Shrink with PageMaster before encoding.")
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:
         "Lower a (possibly shrunk) schedule to per-PE context words and run the \
          decoder-level machine.")
    Term.(
      const run $ kernel_arg $ size_arg $ page_arg $ seed_arg $ paged $ target
      $ domains_arg)

(* ----- compile / cache ----- *)

let cache_arg =
  let doc =
    "Directory of the persistent binary store.  Compiled kernels are \
     content-addressed by (format version, canonical arch fingerprint, kernel \
     digest, seed); warm artifacts turn compilation into a disk read, and \
     corrupt or version-stale artifacts fall back to recompilation."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let cmd_compile =
  let run kernel size page_pes seed cache_dir domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    let store = Option.map Cgra_store.open_ cache_dir in
    Option.iter Cgra_store.install store;
    Fun.protect
      ~finally:(fun () -> if store <> None then Cgra_store.uninstall ())
      (fun () ->
        let binaries =
          Cgra_util.Pool.with_pool ?domains (fun pool ->
              match kernel with
              | Some name ->
                  let k = or_die (kernel_of name) in
                  or_die (Result.map (fun b -> [ b ]) (Binary.compile ~seed ~pool arch k))
              | None -> or_die (Binary.compile_suite ~seed ~pool arch))
        in
        (* stdout carries only the deterministic compile results, so a
           cold and a warm run byte-compare (the @smoke rule does) *)
        List.iter
          (fun (b : Binary.t) ->
            Printf.printf "%-10s II_b=%2d  II_c=%2d  pages=%d\n" b.Binary.name
              (Binary.ii_base b) (Binary.ii_paged b) (Binary.pages_used b))
          binaries;
        match store with
        | None -> ()
        | Some s ->
            let c = Cgra_store.counters s in
            Printf.eprintf
              "cache %s: %d disk hits, %d compiles, %d stored, %d rejected\n"
              (Cgra_store.dir s) c.Cgra_store.load_hits
              (Binary.stats ()).Binary.compiles c.Cgra_store.saves
              c.Cgra_store.rejects)
  in
  let kernel =
    let doc = "Kernel to compile (default: the whole suite)." in
    Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a kernel (or the whole suite) to its base/paged binary pair, \
          optionally through the persistent binary store: warm artifacts load \
          from disk without running the scheduler.")
    Term.(
      const run $ kernel $ size_arg $ page_arg $ seed_arg $ cache_arg $ domains_arg)

let cmd_cache =
  let run action dir =
    let s = Cgra_store.open_ dir in
    match action with
    | `Stats ->
        let st = Cgra_store.stats s in
        Printf.printf
          "store %s: %d artifacts, %d bytes (%d intact, %d stale-version, %d \
           corrupt)\n"
          (Cgra_store.dir s) st.Cgra_store.artifacts st.Cgra_store.bytes
          st.Cgra_store.intact st.Cgra_store.stale st.Cgra_store.corrupt
    | `Verify -> (
        let bad =
          List.filter_map
            (fun (rel, status) ->
              match status with
              | Cgra_store.Intact -> None
              | Cgra_store.Stale_version v ->
                  Some (Printf.sprintf "%s: stale format version %d" rel v)
              | Cgra_store.Corrupt e -> Some (Printf.sprintf "%s: %s" rel e))
            (Cgra_store.scan s)
        in
        match bad with
        | [] ->
            Printf.printf "verify: all %d artifacts intact\n"
              (Cgra_store.stats s).Cgra_store.artifacts
        | problems ->
            List.iter (fun p -> print_endline ("BAD ARTIFACT " ^ p)) problems;
            exit 1)
    | `Gc ->
        let removed, freed = Cgra_store.gc s in
        Printf.printf "gc: removed %d artifacts (%d bytes)\n" removed freed
  in
  let action =
    let doc =
      "$(b,stats) (artifact and byte counts), $(b,verify) (re-check every \
       artifact's framing, payload digest, and content address; non-zero exit \
       on any bad artifact), or $(b,gc) (delete corrupt and version-stale \
       artifacts)."
    in
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("verify", `Verify); ("gc", `Gc) ])) None
      & info [] ~docv:"ACTION" ~doc)
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR" ~doc:"Store directory.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect, verify, or garbage-collect a persistent binary store.")
    Term.(const run $ action $ dir)

(* ----- verify ----- *)

let cmd_verify =
  let run kernel size page_pes seed paged fold_sweep iterations domains =
    let arch = or_die (arch_of ~size ~page_pes) in
    let k = or_die (kernel_of kernel) in
    let kind = if paged then Scheduler.Paged else Scheduler.Unconstrained in
    let m =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Scheduler.map ~seed ~pool kind arch k.graph))
    in
    Format.printf "%a@." Mapping.pp_stats m;
    let report what = function
      | [] -> Printf.printf "%s: ok\n" what
      | vs ->
          List.iter
            (fun v ->
              Format.printf "%s VIOLATION %a@." what Cgra_verify.Verify.pp_violation
                v)
            vs;
          exit 1
    in
    report "mapping" (Cgra_verify.Verify.check m);
    if fold_sweep then begin
      if not paged then or_die (Error "--fold-sweep needs --paged");
      let n = Mapping.n_pages_used m in
      let total = Cgra.n_pages arch in
      let mem = Cgra_kernels.Kernels.init_memory k in
      for target = 1 to n do
        for base = 0 to total - min target n do
          let what = Printf.sprintf "fold m=%d base=%d" target base in
          let sh = or_die (Transform.fold ~base_page:base ~target_pages:target m) in
          if sh.Transform.mapping.ii
             <> Transform.ii_q ~ii_p:m.ii ~n_used:n ~target_pages:target
          then or_die (Error (what ^ ": II_q law violated"));
          if sh.Transform.pe_exact then begin
            report what
              (Cgra_verify.Verify.check ~check_mem:false sh.Transform.mapping);
            match
              Cgra_sim.Check.against_oracle sh.Transform.mapping mem ~iterations
            with
            | Ok () -> ()
            | Error es -> or_die (Error (what ^ ": " ^ List.hd es))
          end
          else Printf.printf "%s: page-level only (no PE-exact mirroring)\n" what
        done
      done;
      Printf.printf
        "fold sweep: every target in [1, %d] at every base verified, bit-exact \
         over %d iterations\n"
        n iterations
    end
  in
  let paged =
    Arg.(value & flag & info [ "paged" ] ~doc:"Use the paging-constrained compiler.")
  in
  let fold_sweep =
    Arg.(
      value & flag
      & info [ "fold-sweep" ]
          ~doc:"Fold to every target page count at every base page and verify each.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check the paper's mapping invariants mechanically on one kernel's \
          mapping, optionally across the whole fold sweep.")
    Term.(
      const run $ kernel_arg $ size_arg $ page_arg $ seed_arg $ paged $ fold_sweep
      $ iters_arg $ domains_arg)

(* ----- fuzz ----- *)

let cmd_fuzz =
  let harnesses =
    [
      Cgra_verify.Fuzz.harness ~iterations:32;
      Cgra_verify.Os_fuzz.harness;
      Cgra_verify.Meld_fuzz.harness;
      Cgra_farm.Farm_fuzz.harness;
    ]
  in
  let run name n seed domains =
    if n < 1 then or_die (Error "fuzz needs a positive seed count");
    let harness =
      List.find (fun (h : Cgra_util.Corpus.harness) -> h.name = name) harnesses
    in
    let seeds = List.init n (fun i -> seed + i) in
    let o =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          Cgra_util.Corpus.run ~pool harness ~seeds)
    in
    Format.printf "%a@." Cgra_util.Corpus.pp o;
    if o.Cgra_util.Corpus.failures <> [] then exit 1
  in
  let harness_name =
    let doc =
      "$(b,pipeline) (random kernels mapped, folded to every target at every \
       base page, verified and run against the oracle), $(b,os) (random \
       workloads through the OS simulator, every trace monitored and \
       replayed), $(b,meld) (random melded resident sets checked by the \
       runtime and the independent checker, plus injected mutants), or \
       $(b,farm) (random fleets, tenant mixes and loads held to the \
       conservation invariants)."
    in
    let names =
      List.map
        (fun (h : Cgra_util.Corpus.harness) -> (h.name, h.name))
        harnesses
    in
    Arg.(required & pos 0 (some (enum names)) None & info [] ~docv:"HARNESS" ~doc)
  in
  let n =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"N" ~doc:"Seeds to run, starting at $(b,--seed).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a seeded fuzz harness over N consecutive seeds and check every \
          case; counts and failures are the same at any $(b,-j).  Exits 1 on \
          any failure.")
    Term.(const run $ harness_name $ n $ seed_arg $ domains_arg)

(* ----- dot ----- *)

let cmd_dot =
  let run kernel =
    let k = or_die (kernel_of kernel) in
    print_string (Dot.to_dot k.graph)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Print a kernel's data-flow graph in Graphviz format.")
    Term.(const run $ kernel_arg)

(* ----- farm ----- *)

let cmd_farm =
  let run shards page_pes tenants requests load queue_bound max_resident seed
      policy reconfig_cost stats trace_out format show_log domains =
    let policy, dispatch = policy in
    if shards = [] then or_die (Error "--shards wants at least one size");
    let p =
      {
        Cgra_farm.Farm.fleet =
          List.map (fun size -> { Cgra_farm.Farm.size; page_pes }) shards;
        n_tenants = tenants;
        n_requests = requests;
        offered_load = load;
        queue_bound;
        max_resident;
        seed;
        policy;
        reconfig_cost;
        dispatch;
      }
    in
    let r =
      Cgra_util.Pool.with_pool ?domains (fun pool ->
          or_die (Cgra_farm.Farm.run ~pool ~traced:true p))
    in
    (* the trace must witness the run before it is worth printing
       numbers derived from it *)
    (match Cgra_farm.Farm_fuzz.check r with
    | [] -> ()
    | es ->
        List.iter (fun e -> print_endline ("FARM DEFECT: " ^ e)) es;
        exit 1);
    print_string (Cgra_farm.Farm.render ~log:show_log r);
    if stats then print_string (Cgra_farm.Farm.render_stats r);
    match trace_out with
    | None -> ()
    | Some path -> export_trace ~format ~path r.Cgra_farm.Farm.farm_events
  in
  let shards =
    Arg.(
      value
      & opt (list int) [ 4; 6; 8 ]
      & info [ "shards" ] ~docv:"SIZES"
          ~doc:"Comma-separated fabric sizes, one shard each (e.g. 4,6,8).")
  in
  let tenants =
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N" ~doc:"Tenant count.")
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to offer.")
  in
  let load =
    Arg.(
      value & opt float 1.0
      & info [ "load" ] ~docv:"F"
          ~doc:"Offered load as a multiple of the fleet's nominal capacity.")
  in
  let queue_bound =
    Arg.(
      value & opt int 8
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:"Max queued requests per tenant before admission rejects.")
  in
  let max_resident =
    Arg.(
      value & opt int 8
      & info [ "max-resident" ] ~docv:"N"
          ~doc:"Max in-flight requests per shard.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Export the front end's farm_* event stream to FILE.")
  in
  let show_log =
    Arg.(
      value & flag
      & info [ "log" ] ~doc:"Print the per-request retirement log.")
  in
  (* The farm spells one extra policy: $(b,cost-aware) keeps the
     cost-halving allocator and additionally defers dispatch when
     queueing is cheaper than the reshape cycles a grant would cost. *)
  let farm_policy_arg =
    let doc =
      "Serving policy: $(b,halving) (the paper's), $(b,repack), $(b,cost) \
       (reconfiguration-cost-aware halving), or $(b,cost-aware) (cost-halving \
       allocation plus cost-aware dispatch that defers grants when queueing \
       is cheaper than reshaping)."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("halving", (Allocator.Halving, Cgra_farm.Farm.Least_loaded));
               ("repack", (Allocator.Repack_equal, Cgra_farm.Farm.Least_loaded));
               ("cost", (Allocator.Cost_halving, Cgra_farm.Farm.Least_loaded));
               ("cost-aware", (Allocator.Cost_halving, Cgra_farm.Farm.Cost_aware));
             ])
          (Allocator.Halving, Cgra_farm.Farm.Least_loaded)
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print front-end statistics: the coordinator's step count, \
             per-shard steps, busy fractions and served counts, and the \
             steal-free load imbalance.")
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Serve an open-loop request stream on a sharded fleet of fabrics \
          (per-tenant FIFO queues, admission control, Os_sim page \
          allocation as each shard's online scheduler), deterministically \
          from a seed, and report throughput and latency quantiles.")
    Term.(
      const run $ shards $ page_arg $ tenants $ requests $ load $ queue_bound
      $ max_resident $ seed_arg $ farm_policy_arg $ reconfig_cost_arg
      $ stats $ trace_out $ format_arg $ show_log $ domains_arg)

(* ----- fig8 / fig9 ----- *)

let cmd_fig8 =
  let run size seed domains =
    Cgra_util.Pool.with_pool ?domains (fun pool ->
        List.iter
          (fun f ->
            print_endline (Experiments.render_fig8 f);
            print_newline ())
          (Experiments.fig8_all ~seed ~pool ~size ()))
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Reproduce Fig. 8 (constraint cost) for one CGRA size.")
    Term.(const run $ size_arg $ seed_arg $ domains_arg)

let cmd_fig9 =
  let run size seed replicates trace_out format domains =
    Cgra_util.Pool.with_pool ?domains (fun pool ->
        List.iter
          (fun f ->
            print_endline (Experiments.render_fig9 f);
            print_newline ())
          (Experiments.fig9_all ~seed ~replicates ~pool ~size ());
        match trace_out with
        | None -> ()
        | Some path ->
            (* one representative run of the figure's most contended point:
               16 threads wanting the CGRA 87.5% of the time, Multi mode —
               compiled through the same pool as the sweep, so -j means
               the same thing here as in map/simulate/trace *)
            let arch = or_die (arch_of ~size ~page_pes:4) in
            let suite = or_die (Binary.compile_suite ~seed ~pool arch) in
            let total_pages = Cgra.n_pages arch in
            let threads =
              Workload.generate ~seed ~n_threads:16 ~cgra_need:0.875 ~suite ()
            in
            let trace = Cgra_trace.Trace.make () in
            ignore
              (Os_sim.run ~trace
                 { Os_sim.suite; threads; total_pages; mode = Os_sim.Multi });
            export_trace ~format ~path (Cgra_trace.Trace.events trace))
  in
  let replicates =
    Arg.(
      value & opt int 3
      & info [ "replicates" ] ~docv:"R" ~doc:"Random workloads per data point.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also record one representative 16-thread Multi-mode run (the \
             figure's most contended point) to FILE.")
  in
  Cmd.v
    (Cmd.info "fig9"
       ~doc:"Reproduce Fig. 9 (multithreading improvement) for one CGRA size.")
    Term.(
      const run $ size_arg $ seed_arg $ replicates $ trace_out $ format_arg
      $ domains_arg)

let () =
  let doc = "multithreaded CGRA compiler, PageMaster transformation, and simulator" in
  let info = Cmd.info "cgra_tool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_kernels; cmd_map; cmd_shrink; cmd_simulate; cmd_trace;
            cmd_profile; cmd_encode; cmd_compile; cmd_cache; cmd_greedy;
            cmd_verify; cmd_fuzz; cmd_dot; cmd_farm; cmd_fig8; cmd_fig9;
          ]))
