type mode = Single | Multi

type params = {
  suite : Binary.t list;
  threads : Thread_model.t list;
  total_pages : int;
  mode : mode;
}

type result_t = {
  makespan : float;
  finishes : (int * float) list;
  total_ops : float;
  ipc : float;
  busy_page_cycles : float;
  page_utilization : float;
  transformations : int;
  stalls : int;
}

(* What the engine reads of a binary at every kernel request, grant and
   reshape, computed at the kernel's first request in an engine: each is
   otherwise a search of the suite, a filter over the kernel's graph or
   a rebuild of its mapping's occupant set.  A farm shard requests only
   the few kernels of its mix, so the rest of the suite is never
   walked. *)
type kernel = {
  bin : Binary.t;
  ops : int;  (* micro-ops per iteration: the non-constant nodes *)
  mem : int;  (* memory nodes *)
  pages_used : int;  (* pages of the paged schedule: the desired allocation *)
}

type tstate =
  | On_cpu of Thread_model.segment list  (* rest after the running cpu phase *)
  | Waiting of kernel * int * Thread_model.segment list  (* kernel, iters, rest *)
  | On_cgra of {
      kernel : kernel;
      mutable iters_left : float;
      mutable rate : float;  (* cycles per iteration *)
      mutable pages : int;
      mutable base : int;  (* first allocated page: a move is a reshape *)
      mutable last_update : float;
      rest : Thread_model.segment list;
    }
  | Done of float

type thread_rec = {
  id : int;
  mutable state : tstate;
  mutable gen : int;  (* event generation; stale events are ignored *)
}

(* A queued event: the thread it wakes and that thread's generation when
   it was posted.  A later post to the same thread supersedes it. *)
type event = { thread : thread_rec; stamp : int }

let kernel_of (b : Binary.t) =
  {
    bin = b;
    ops =
      List.length
        (List.filter
           (fun (n : Cgra_dfg.Graph.node) ->
             match n.op with Cgra_dfg.Op.Const _ -> false | _ -> true)
           (Cgra_dfg.Graph.nodes b.graph));
    mem = Cgra_dfg.Graph.mem_node_count b.graph;
    pages_used = Binary.pages_used b;
  }

let improvement_percent ~single ~multi =
  Cgra_util.Stats.improvement_percent ~baseline:single.makespan
    ~improved:multi.makespan

module T = Cgra_trace.Trace

module Engine = struct
  type t = {
    suite : Binary.t list;
    mutable kernels : kernel list;  (* facts computed so far *)
    total_pages : int;
    mode : mode;
    reconfig_cost : float;
    trace : T.t;
    tracing : bool;
    alloc : Allocator.t;
    threads : thread_rec Queue.t;  (* submission order — result reports it *)
    mutable live : thread_rec array;
        (* [0, n_live): unfinished, submission order — resync walks it,
           in_flight counts it *)
    mutable n_live : int;
    ids : Cgra_util.Int_set.t;  (* every submitted id *)
    mutable synced_moves : int;  (* [Allocator.moves] at the last resync walk *)
    waiters : thread_rec Queue.t;
    mutable cgra_busy_single : bool;
    mutable transformations : int;
    mutable stalls : int;
    mutable busy_page_cycles : float;
    mutable total_ops : float;
    queue : (float, event) Cgra_util.Pqueue.t;  (* by (time, post order) *)
    mutable horizon : float;  (* latest stepped-event or submit time *)
    mutable on_finish : int -> float -> unit;
    mutable on_grant : int -> float -> unit;
  }

  let create ?(policy = Allocator.Halving) ?(reconfig_cost = 0.0)
      ?(trace = T.null) ?(n_threads = 0) ~suite ~total_pages ~mode () =
    if not (Float.is_finite reconfig_cost && reconfig_cost >= 0.0) then
      invalid_arg "Os_sim.run: reconfig cost must be a finite number >= 0";
    let tracing = T.enabled trace in
    let alloc = Allocator.create ~policy ~trace ~total_pages () in
    if tracing then begin
      (* fabric geometry, so post-hoc analyzers (row-bus contention) need no
         arch arguments: every binary in a suite shares one fabric *)
      let rows, mem_ports =
        match suite with
        | [] -> (0, 0)
        | b :: _ ->
            let a = b.Binary.paged.Cgra_mapper.Mapping.arch in
            (a.Cgra_arch.Cgra.grid.Cgra_arch.Grid.rows,
             a.Cgra_arch.Cgra.mem_ports_per_row)
      in
      T.emit_at trace ~time:0.0
        (T.Run_begin
           {
             mode = (match mode with Single -> "single" | Multi -> "multi");
             total_pages;
             n_threads;
             policy =
               (match policy with
               | Allocator.Halving -> "halving"
               | Allocator.Repack_equal -> "repack_equal"
               | Allocator.Cost_halving -> "cost_halving");
             reconfig_cost;
             rows;
             mem_ports;
           })
    end;
    {
      suite;
      kernels = [];
      total_pages;
      mode;
      reconfig_cost;
      trace;
      tracing;
      alloc;
      threads = Queue.create ();
      live = [||];
      n_live = 0;
      ids = Cgra_util.Int_set.create ();
      synced_moves = 0;
      waiters = Queue.create ();
      cgra_busy_single = false;
      transformations = 0;
      stalls = 0;
      busy_page_cycles = 0.0;
      total_ops = 0.0;
      queue = Cgra_util.Pqueue.create ~cmp:Float.compare;
      horizon = neg_infinity;
      on_finish = (fun _ _ -> ());
      on_grant = (fun _ _ -> ());
    }

  let set_on_finish e f = e.on_finish <- f
  let set_on_grant e f = e.on_grant <- f

  let rec known name = function
    | [] -> None
    | k :: rest -> if String.equal k.bin.Binary.name name then Some k else known name rest

  (* The facts of kernel [name], computed from its first binary in suite
     order at its first request. *)
  let kernel e name =
    match known name e.kernels with
    | Some k -> k
    | None -> (
        match List.find_opt (fun (b : Binary.t) -> String.equal b.name name) e.suite with
        | Some b ->
            let k = kernel_of b in
            e.kernels <- k :: e.kernels;
            k
        | None -> invalid_arg ("Os_sim.run: unknown kernel " ^ name))

  let add_live e t =
    if e.n_live = Array.length e.live then begin
      let grown = Array.make (max 8 (2 * e.n_live)) t in
      Array.blit e.live 0 grown 0 e.n_live;
      e.live <- grown
    end;
    e.live.(e.n_live) <- t;
    e.n_live <- e.n_live + 1

  let rec live_index e t i = if e.live.(i) == t then i else live_index e t (i + 1)

  (* Removal keeps the others in submission order. *)
  let remove_live e t =
    let i = live_index e t 0 in
    Array.blit e.live (i + 1) e.live i (e.n_live - i - 1);
    e.n_live <- e.n_live - 1

  (* Post [t]'s next event, superseding any it has queued. *)
  let post e time t =
    t.gen <- t.gen + 1;
    Cgra_util.Pqueue.push e.queue time { thread = t; stamp = t.gen }

  let settle e now t =
    match t.state with
    | On_cgra k ->
        let elapsed = now -. k.last_update in
        if elapsed > 0.0 then begin
          k.iters_left <- k.iters_left -. (elapsed /. k.rate);
          e.busy_page_cycles <-
            e.busy_page_cycles +. (elapsed *. float_of_int k.pages);
          (* one occupancy sample per accrual: Replay re-sums these in
             stream order to reproduce busy_page_cycles bit-exactly *)
          if e.tracing then
            T.emit_at e.trace ~time:now
              (T.Occupancy { thread = t.id; pages = k.pages; elapsed });
          k.last_update <- now
        end
    | On_cpu _ | Waiting _ | Done _ -> ()

  let reschedule e now t =
    match t.state with
    | On_cgra k -> post e (now +. (Float.max 0.0 k.iters_left *. k.rate)) t
    | On_cpu _ | Waiting _ | Done _ -> ()

  (* [Binary.iteration_cycles], on the page count computed once *)
  let rate_for k pages =
    float_of_int
      (Transform.ii_q ~ii_p:(Binary.ii_paged k.bin) ~n_used:k.pages_used
         ~target_pages:pages)

  (* Multi mode: after any allocator change, refresh every running
     kernel whose allocation moved (a PageMaster shrink or expand).  The
     walk keeps submission order: it posts events, and equal-time events
     pop in posting order.  After a walk every running kernel matches its
     allocation, and a newcomer starts from its own grant, so until the
     allocator rewrites a resident's range again (its move count rises)
     a walk would find nothing and is skipped. *)
  let resync e now =
    let moves = Allocator.moves e.alloc in
    if moves <> e.synced_moves then begin
      e.synced_moves <- moves;
      for i = 0 to e.n_live - 1 do
        let t = e.live.(i) in
        match t.state with
        | On_cgra k -> (
            match Allocator.allocation e.alloc ~client:t.id with
            | Some r when r.Allocator.len <> k.pages || r.Allocator.base <> k.base ->
                settle e now t;
                let rate = rate_for k.kernel r.Allocator.len in
                if e.tracing then begin
                  let before = { T.base = k.base; len = k.pages } in
                  let after = { T.base = r.Allocator.base; len = r.Allocator.len } in
                  let kind =
                    if after.T.len < before.T.len then T.Shrink
                    else if after.T.len > before.T.len then T.Expand
                    else T.Move
                  in
                  T.emit_at e.trace ~time:now
                    (T.Reshape
                       {
                         thread = t.id;
                         kind;
                         before;
                         after;
                         pages_rewritten = after.T.len;
                         cost = e.reconfig_cost;
                         rate;
                       })
                end;
                k.pages <- r.Allocator.len;
                k.base <- r.Allocator.base;
                k.rate <- rate;
                e.transformations <- e.transformations + 1;
                (* the kernel makes no progress while being reshaped *)
                k.last_update <- now +. e.reconfig_cost;
                post e
                  (now +. e.reconfig_cost +. (Float.max 0.0 k.iters_left *. k.rate))
                  t
            | Some _ | None -> ())
        | On_cpu _ | Waiting _ | Done _ -> ()
      done
    end

  let rec advance e now t segments =
    match segments with
    | [] ->
        t.state <- Done now;
        remove_live e t;
        if e.tracing then
          T.emit_at e.trace ~time:now (T.Thread_finish { thread = t.id });
        e.on_finish t.id now
    | Thread_model.Cpu c :: rest ->
        t.state <- On_cpu rest;
        post e (now +. float_of_int c) t
    | Thread_model.Kernel { kernel = name; iterations } :: rest ->
        let k = kernel e name in
        let segment_ops = k.ops * iterations in
        e.total_ops <- e.total_ops +. float_of_int segment_ops;
        if e.tracing then
          T.emit_at e.trace ~time:now
            (T.Kernel_request
               {
                 thread = t.id;
                 kernel = name;
                 iterations;
                 ops = segment_ops;
                 mem = k.mem;
                 desired = k.pages_used;
               });
        start_kernel e now t k ~iterations ~rest

  (* [enqueue] is false when the thread is already the front entry of
     [waiters] (a retry from [serve]): it must neither be re-enqueued —
     that would leave a duplicate queue entry — nor counted as a fresh
     stall. *)
  and record_stall e now t ~kernel =
    e.stalls <- e.stalls + 1;
    Queue.add t e.waiters;
    if e.tracing then begin
      T.emit_at e.trace ~time:now
        (T.Kernel_stall
           { thread = t.id; kernel; queue_depth = Queue.length e.waiters })
    end

  and record_grant e now t ~kernel ~base ~pages ~shrunk ~cost ~rate =
    if e.tracing then begin
      T.emit_at e.trace ~time:now
        (T.Kernel_grant
           { thread = t.id; kernel; range = { T.base; len = pages }; shrunk; cost;
             rate })
    end;
    e.on_grant t.id now

  and start_kernel ?(enqueue = true) e now t k ~iterations ~rest =
    let kernel = k.bin.Binary.name in
    match e.mode with
    | Single ->
        if e.cgra_busy_single then begin
          if enqueue then record_stall e now t ~kernel;
          t.state <- Waiting (k, iterations, rest)
        end
        else begin
          e.cgra_busy_single <- true;
          let rate = float_of_int (Binary.ii_base k.bin) in
          record_grant e now t ~kernel ~base:0 ~pages:e.total_pages ~shrunk:false
            ~cost:0.0 ~rate;
          t.state <-
            On_cgra
              { kernel = k; iters_left = float_of_int iterations; rate;
                pages = e.total_pages; base = 0; last_update = now; rest };
          post e (now +. (float_of_int iterations *. rate)) t
        end
    | Multi -> (
        let desired = max 1 (min k.pages_used e.total_pages) in
        if e.tracing then T.set_clock e.trace now;
        match Allocator.request e.alloc ~client:t.id ~desired with
        | None ->
            if enqueue then record_stall e now t ~kernel;
            t.state <- Waiting (k, iterations, rest)
        | Some r ->
            let shrunk_entry = r.Allocator.len < desired in
            if shrunk_entry then e.transformations <- e.transformations + 1;
            let entry_cost = if shrunk_entry then e.reconfig_cost else 0.0 in
            let rate = rate_for k r.Allocator.len in
            t.state <-
              On_cgra
                { kernel = k; iters_left = float_of_int iterations; rate;
                  pages = r.Allocator.len; base = r.Allocator.base;
                  last_update = now +. entry_cost; rest };
            post e (now +. entry_cost +. (float_of_int iterations *. rate)) t;
            (* the request may have shrunk a victim; PageMaster reshapes it
               before the newcomer occupies the freed half, so the victim's
               Reshape event must precede the newcomer's grant *)
            resync e now;
            record_grant e now t ~kernel ~base:r.Allocator.base
              ~pages:r.Allocator.len ~shrunk:shrunk_entry ~cost:entry_cost ~rate)

  (* The waiter stays at the front of [waiters] while it retries; the
     caller pops it only on success. *)
  and try_start_waiter e now w =
    match w.state with
    | Waiting (k, iterations, rest) -> (
        start_kernel ~enqueue:false e now w k ~iterations ~rest;
        match w.state with Waiting _ -> false | _ -> true)
    | On_cpu _ | On_cgra _ | Done _ -> true (* stale entry; drop it *)

  and record_release e now t (k : kernel) ~base ~pages =
    if e.tracing then
      T.emit_at e.trace ~time:now
        (T.Kernel_release
           { thread = t.id; kernel = k.bin.Binary.name; range = { T.base; len = pages } })

  and finish_kernel e now t k rest =
    (match e.mode with
    | Single -> (
        record_release e now t k ~base:0 ~pages:e.total_pages;
        e.cgra_busy_single <- false;
        match Queue.peek_opt e.waiters with
        | Some w -> if try_start_waiter e now w then ignore (Queue.take e.waiters)
        | None -> ())
    | Multi ->
        (if e.tracing then
           match Allocator.allocation e.alloc ~client:t.id with
           | Some r ->
               record_release e now t k ~base:r.Allocator.base ~pages:r.Allocator.len
           | None -> ());
        if e.tracing then T.set_clock e.trace now;
        Allocator.release e.alloc ~client:t.id;
        let rec serve () =
          match Queue.peek_opt e.waiters with
          | None -> ()
          | Some w ->
              if try_start_waiter e now w then begin
                ignore (Queue.take e.waiters);
                serve ()
              end
        in
        serve ();
        ignore (Allocator.expand e.alloc);
        resync e now);
    advance e now t rest

  let submit e ~at (spec : Thread_model.t) =
    (* a NaN or infinite time would make every later ordering check
       vacuous and the kernel's remaining time NaN: drain would spin *)
    if not (Float.is_finite at) then
      invalid_arg "Os_sim.Engine.submit: non-finite arrival time";
    if Cgra_util.Int_set.mem e.ids spec.id then
      invalid_arg "Os_sim.Engine.submit: duplicate thread id";
    (* Enforce the monotonic-submission contract instead of silently
       producing a run that never happened: an arrival below the horizon
       (something already stepped or submitted later than [at]), or with
       an earlier internal event still queued, is rejected. *)
    if at < e.horizon then
      invalid_arg "Os_sim.Engine.submit: out-of-order arrival (before horizon)";
    if (not (Cgra_util.Pqueue.is_empty e.queue))
       && Cgra_util.Pqueue.min_prio e.queue < at
    then
      invalid_arg "Os_sim.Engine.submit: out-of-order arrival (earlier event pending)";
    e.horizon <- at;
    let t = { id = spec.id; state = Done at; gen = 0 } in
    Queue.add t e.threads;
    add_live e t;
    Cgra_util.Int_set.add e.ids t.id;
    if e.tracing then
      T.emit_at e.trace ~time:at
        (T.Thread_arrival { thread = t.id; segments = List.length spec.segments });
    advance e at t spec.segments

  let next_event e =
    if Cgra_util.Pqueue.is_empty e.queue then infinity
    else Cgra_util.Pqueue.min_prio e.queue

  let step e =
    if Cgra_util.Pqueue.is_empty e.queue then false
    else begin
      let now = Cgra_util.Pqueue.min_prio e.queue in
      let { thread = t; stamp } = Cgra_util.Pqueue.pop_min e.queue in
      e.horizon <- Float.max e.horizon now;
      if stamp = t.gen then begin
        match t.state with
        | On_cpu segs -> advance e now t segs
        | On_cgra k ->
            settle e now t;
            if k.iters_left <= 1e-6 then finish_kernel e now t k.kernel k.rest
            else reschedule e now t
        | Waiting _ | Done _ -> ()
      end;
      true
    end

  let rec run_until e time =
    if (not (Cgra_util.Pqueue.is_empty e.queue))
       && Cgra_util.Pqueue.min_prio e.queue <= time
    then begin
      ignore (step e);
      run_until e time
    end

  let rec drain e = if step e then drain e

  let in_flight e = e.n_live
  let free_pages e = Allocator.free_pages e.alloc

  let result e =
    let finishes =
      Queue.fold
        (fun acc t ->
          match t.state with
          | Done time -> (t.id, time) :: acc
          | On_cpu _ | Waiting _ | On_cgra _ ->
              invalid_arg "Os_sim.run: deadlock — a thread never finished")
        [] e.threads
      |> List.rev
    in
    let makespan = List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 finishes in
    if e.tracing then T.emit_at e.trace ~time:makespan (T.Run_end { makespan });
    {
      makespan;
      finishes;
      total_ops = e.total_ops;
      ipc = (if makespan > 0.0 then e.total_ops /. makespan else 0.0);
      busy_page_cycles = e.busy_page_cycles;
      page_utilization =
        (if makespan > 0.0 then
           e.busy_page_cycles /. (makespan *. float_of_int e.total_pages)
         else 0.0);
      transformations = e.transformations;
      stalls = e.stalls;
    }
end

let run ?(policy = Allocator.Halving) ?(reconfig_cost = 0.0)
    ?(trace = Cgra_trace.Trace.null) p =
  if p.threads = [] then invalid_arg "Os_sim.run: no threads";
  let e =
    Engine.create ~policy ~reconfig_cost ~trace
      ~n_threads:(List.length p.threads) ~suite:p.suite
      ~total_pages:p.total_pages ~mode:p.mode ()
  in
  List.iter (fun spec -> Engine.submit e ~at:0.0 spec) p.threads;
  Engine.drain e;
  Engine.result e
