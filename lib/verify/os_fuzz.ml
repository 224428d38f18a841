open Cgra_core
module T = Cgra_trace.Trace
module Replay = Cgra_trace.Replay

let pp_range ppf (r : T.page_range) =
  Format.fprintf ppf "[%d+%d]" r.base r.len

let range_str (r : T.page_range) = Format.asprintf "%a" pp_range r

let monitor events =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let total = ref None in
  let alloc : (int, T.page_range) Hashtbl.t = Hashtbl.create 8 in
  let waiting : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let finished : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_time = ref neg_infinity in
  (* pages conserved: disjoint, in bounds, and no more than the fabric.
     All events sharing one timestamp form a transaction — a Repack_equal
     contention rewrites several residents "at once", and no serial order
     of the individual moves is stepwise-disjoint in general — so the
     check runs at every instant boundary, not after every event. *)
  let dirty = ref None (* seq of the last allocation change, if unchecked *) in
  let conserved seq =
    match !total with
    | None -> ()
    | Some total ->
        let ranges =
          Hashtbl.fold (fun c r acc -> (c, r) :: acc) alloc []
          |> List.sort (fun (_, (a : T.page_range)) (_, b) ->
                 compare a.base b.base)
        in
        let sum =
          List.fold_left (fun acc (_, (r : T.page_range)) -> acc + r.len) 0 ranges
        in
        if sum > total then
          err "event %d: %d pages allocated on a %d-page fabric" seq sum total;
        List.iter
          (fun (c, (r : T.page_range)) ->
            if r.base < 0 || r.len <= 0 || r.base + r.len > total then
              err "event %d: thread %d holds out-of-bounds range %s" seq c
                (range_str r))
          ranges;
        let rec disjoint = function
          | (c1, (r1 : T.page_range)) :: ((c2, (r2 : T.page_range)) :: _ as rest)
            ->
              if r1.base + r1.len > r2.base then
                err "event %d: threads %d %s and %d %s overlap" seq c1
                  (range_str r1) c2 (range_str r2);
              disjoint rest
          | [ _ ] | [] -> ()
        in
        disjoint ranges
  in
  List.iter
    (fun (e : T.event) ->
      let seq = e.seq in
      if e.time < !last_time then
        err "event %d: time went backwards (%g after %g)" seq e.time !last_time;
      (match !dirty with
      | Some s when e.time > !last_time ->
          conserved s;
          dirty := None
      | Some _ | None -> ());
      last_time := e.time;
      let touched () = dirty := Some seq in
      match e.payload with
      | T.Run_begin r ->
          if !total <> None then err "event %d: duplicate run_begin" seq;
          if r.total_pages <= 0 then
            err "event %d: run_begin with %d pages" seq r.total_pages;
          total := Some r.total_pages
      | T.Kernel_stall r ->
          if Hashtbl.mem waiting r.thread then
            err "event %d: thread %d queued while already waiting" seq r.thread;
          Hashtbl.replace waiting r.thread ();
          if r.queue_depth <> Hashtbl.length waiting then
            err "event %d: stall reports queue depth %d, monitor sees %d" seq
              r.queue_depth (Hashtbl.length waiting)
      | T.Kernel_grant r ->
          Hashtbl.remove waiting r.thread;
          if Hashtbl.mem alloc r.thread then
            err "event %d: thread %d granted while already holding pages" seq
              r.thread;
          Hashtbl.replace alloc r.thread r.range;
          touched ()
      | T.Reshape r ->
          (match Hashtbl.find_opt alloc r.thread with
          | None ->
              err "event %d: reshape of thread %d, which holds nothing" seq
                r.thread
          | Some held ->
              if held <> r.before then
                err "event %d: reshape claims before=%s but thread %d holds %s"
                  seq (range_str r.before) r.thread (range_str held));
          if r.pages_rewritten <> r.after.T.len then
            err "event %d: reshape rewrites %d pages into a %d-page range" seq
              r.pages_rewritten r.after.T.len;
          if r.cost < 0.0 then err "event %d: negative reshape cost" seq;
          Hashtbl.replace alloc r.thread r.after;
          touched ()
      | T.Kernel_release r ->
          (match Hashtbl.find_opt alloc r.thread with
          | None ->
              err "event %d: thread %d released pages it does not hold" seq
                r.thread
          | Some held ->
              if held <> r.range then
                err "event %d: thread %d releases %s but holds %s" seq r.thread
                  (range_str r.range) (range_str held));
          Hashtbl.remove alloc r.thread;
          touched ()
      | T.Occupancy r -> (
          if r.elapsed <= 0.0 then
            err "event %d: non-positive occupancy interval %g" seq r.elapsed;
          match Hashtbl.find_opt alloc r.thread with
          | None ->
              err "event %d: occupancy sample for thread %d with no allocation"
                seq r.thread
          | Some held ->
              if held.T.len <> r.pages then
                err "event %d: occupancy says %d pages, thread %d holds %d" seq
                  r.pages r.thread held.T.len)
      | T.Thread_finish r ->
          if Hashtbl.mem finished r.thread then
            err "event %d: thread %d finished twice" seq r.thread;
          Hashtbl.replace finished r.thread ();
          if Hashtbl.mem alloc r.thread then
            err "event %d: thread %d finished still holding pages" seq r.thread;
          if Hashtbl.mem waiting r.thread then
            err "event %d: thread %d finished while queued" seq r.thread
      | T.Run_end _ ->
          if Hashtbl.length alloc <> 0 then
            err "event %d: run ended with %d allocations live" seq
              (Hashtbl.length alloc);
          if Hashtbl.length waiting <> 0 then
            err "event %d: run ended with %d threads still queued" seq
              (Hashtbl.length waiting)
      | T.Thread_arrival _ | T.Kernel_request _ | T.Alloc_decision _
      | T.Farm_begin _ | T.Farm_request _ | T.Farm_reject _ | T.Farm_admit _
      | T.Farm_resident _ | T.Farm_retire _ | T.Farm_end _
      | T.Counter _ | T.Span_begin _ | T.Span_end _ | T.Mark _ ->
          ())
    events;
  (match !dirty with Some s -> conserved s | None -> ());
  List.rev !errs

let replay_check (result : Os_sim.result_t) events =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := !errs @ [ s ]) fmt in
  (match Replay.aggregates events with
  | Error e -> err "replay failed: %s" e
  | Ok a ->
      let fcheck name got expected =
        if compare (got : float) expected <> 0 then
          err "replay %s = %.17g, simulator says %.17g" name got expected
      in
      let icheck name got expected =
        if (got : int) <> expected then
          err "replay %s = %d, simulator says %d" name got expected
      in
      let sorted_finishes =
        List.sort (fun (a, _) (b, _) -> compare a b) result.Os_sim.finishes
      in
      fcheck "makespan" a.Replay.makespan result.Os_sim.makespan;
      if a.Replay.finishes <> sorted_finishes then
        err "replay finishes diverge from the simulator's";
      fcheck "total_ops" a.Replay.total_ops result.Os_sim.total_ops;
      fcheck "ipc" a.Replay.ipc result.Os_sim.ipc;
      fcheck "busy_page_cycles" a.Replay.busy_page_cycles
        result.Os_sim.busy_page_cycles;
      fcheck "page_utilization" a.Replay.page_utilization
        result.Os_sim.page_utilization;
      icheck "transformations" a.Replay.transformations
        result.Os_sim.transformations;
      (* the headline queue invariant: the aggregate stall count is
         exactly the number of stall events the run emitted *)
      icheck "stalls" a.Replay.stalls result.Os_sim.stalls);
  !errs

(* A run's event count, its event stream as JSONL, and every check's
   failures. *)
let check_run ?policy ?reconfig_cost (p : Os_sim.params) =
  let trace = T.make () in
  let result = Os_sim.run ?policy ?reconfig_cost ~trace p in
  let events = T.events trace in
  ( T.n_events trace,
    Cgra_trace.Export.jsonl events,
    monitor events @ replay_check result events )

(* suites come from Binary's memoized compile cache (safe to share
   across domains): each fabric compiles once, whichever case asks
   first *)
let suite (size, page_pes) =
  let arch = Option.get (Cgra_arch.Cgra.standard ~size ~page_pes) in
  match Binary.compile_suite ~seed:1 arch with
  | Ok suite -> (arch, suite)
  | Error e ->
      failwith
        (Printf.sprintf "%dx%d p%d suite failed: %s" size size page_pes e)

let one_case seed =
  let runs = ref 0 in
  let events = ref 0 in
  let streams = ref [] in
  let failures = ref [] in
  let rng = Cgra_util.Rng.create ~seed in
  let ((size, page_pes) as fabric) =
    Cgra_util.Rng.choose rng [| (4, 4); (4, 2) |]
  in
  let arch, suite = suite fabric in
  let total_pages = Cgra_arch.Cgra.n_pages arch in
  let n_threads = Cgra_util.Rng.int_in rng 2 9 in
  let need = Cgra_util.Rng.choose rng [| 0.5; 0.75; 0.875 |] in
  let policy =
    Cgra_util.Rng.choose rng
      [| Allocator.Halving; Allocator.Repack_equal; Allocator.Cost_halving |]
  in
  let reconfig_cost = Cgra_util.Rng.choose rng [| 0.0; 7.0; 250.0 |] in
  let threads =
    Workload.generate ~seed ~n_threads ~cgra_need:need ~suite ()
  in
  List.iter
    (fun mode ->
      incr runs;
      let n, stream, errs =
        check_run ~policy ~reconfig_cost
          { Os_sim.suite; threads; total_pages; mode }
      in
      events := !events + n;
      streams := stream :: !streams;
      List.iter
        (fun e ->
          failures :=
            Printf.sprintf "seed %d (%dx%d p%d, %s, %s, rc %g, %d threads): %s"
              seed size size page_pes
              (match mode with Os_sim.Single -> "single" | Os_sim.Multi -> "multi")
              (Allocator.policy_name policy)
              reconfig_cost n_threads e
            :: !failures)
        errs)
    [ Os_sim.Single; Os_sim.Multi ];
  {
    Cgra_util.Corpus.counts = [ ("runs", !runs); ("events", !events) ];
    failures = List.rev !failures;
    digest = Digest.string (String.concat "" (List.rev !streams));
  }

let harness =
  { Cgra_util.Corpus.name = "os"; counters = [ "runs"; "events" ]; case = one_case }
