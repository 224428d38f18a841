module T = Cgra_trace.Trace
module Hist = Cgra_prof.Metrics.Hist
open Cgra_core

type shard_spec = { size : int; page_pes : int }

let default_fleet =
  [ { size = 4; page_pes = 4 }; { size = 6; page_pes = 4 };
    { size = 8; page_pes = 4 } ]

type dispatch = Least_loaded | Cost_aware

type params = {
  fleet : shard_spec list;
  n_tenants : int;
  n_requests : int;
  offered_load : float;
  queue_bound : int;
  max_resident : int;
  seed : int;
  policy : Allocator.policy;
  reconfig_cost : float;
  dispatch : dispatch;
}

let default_params =
  {
    fleet = default_fleet;
    n_tenants = 4;
    n_requests = 200;
    offered_load = 1.0;
    queue_bound = 8;
    max_resident = 8;
    seed = 0;
    policy = Allocator.Cost_halving;
    reconfig_cost = 0.0;
    dispatch = Least_loaded;
  }

(* The at-scale configuration (ROADMAP: tens of shards, 10^4+ requests).
   Eight of each fabric size keeps the compile cost at three unique
   architectures while giving the coordinator 24 engines to interleave. *)
let big_fleet =
  List.concat_map
    (fun size -> List.init 8 (fun _ -> { size; page_pes = 4 }))
    [ 4; 6; 8 ]

let big_params =
  { default_params with fleet = big_fleet; n_tenants = 8; n_requests = 10_000 }

(* The request mix: the video-serving story the paper's introduction
   motivates — motion compensation, colour conversion, deinterlacing. *)
let mix = [| "mpeg"; "yuv2rgb"; "sobel" |]
let min_iterations = 40
let max_iterations = 120

type terminal = Retired | Rejected

type request = {
  rid : int;
  tenant : int;
  kernel : string;
  iterations : int;
  arrival : float;
  mutable shard : int;  (* -1 until admitted *)
  mutable dispatched : float;  (* nan until admitted *)
  mutable resident_at : float;  (* nan until first page grant *)
  mutable retired_at : float;  (* nan until finished *)
  mutable terminal : terminal option;
}

type shard_report = {
  s_index : int;
  s_spec : shard_spec;
  s_pages : int;
  s_served : int;
  s_busy_cycles : float;  (* sum of (retired - dispatched) over its requests *)
  s_steps : int;  (* coordinator steps that advanced this shard's engine *)
  s_os : Os_sim.result_t;
}

type report = {
  params : params;
  offered : int;
  retired : int;
  rejected : int;
  makespan : float;
  epochs : int;  (* coordinator loop steps (shard advances + arrivals) *)
  throughput : float;  (* retired requests per 1000 cycles *)
  latency : Hist.summary;  (* arrival -> retire, cycles *)
  queue_wait : Hist.summary;  (* arrival -> dispatch, cycles *)
  log : (int * int * int * float) list;  (* rid, tenant, shard, time; retirement order *)
  requests : request list;  (* arrival order, final states *)
  shard_reports : shard_report list;
  farm_events : T.event list;
  shard_events : T.event list list;
}

(* What every shard of one spec shares, computed once per distinct spec
   in a run: the compiled suite and the facts the coordinator reads of
   it. *)
type fabric = {
  pages : int;
  suite : Binary.t list;
  need : int array;
      (* pages the binary of [mix.(k)] occupies (its first in suite
         order; 0 when the suite lacks it, which any shard affords) *)
  service : float;  (* nominal service cycles, [shard_service_cycles] *)
  one_page : int;  (* slowest mix kernel's iteration at one page *)
}

type shard = {
  index : int;
  spec : shard_spec;
  fabric : fabric;
  engine : Os_sim.Engine.t;
  strace : T.t;
  mutable steps : int;
  mutable served : int;
  mutable busy_cycles : float;
}

(* where the coordinator sends a tenant's head request *)
type pick = Full | Deferred | Shard of shard

let ( let* ) = Result.bind

let validate p =
  if p.fleet = [] then Error "farm: empty fleet"
  else if p.n_tenants < 1 then Error "farm: need at least one tenant"
  else if p.n_requests < 0 then Error "farm: negative request count"
  else if not (Float.is_finite p.offered_load && p.offered_load > 0.0) then
    Error "farm: offered load must be a positive finite number"
  else if p.queue_bound < 1 then Error "farm: queue bound must be >= 1"
  else if p.max_resident < 1 then Error "farm: max resident must be >= 1"
  else if not (Float.is_finite p.reconfig_cost && p.reconfig_cost >= 0.0) then
    Error "farm: reconfig cost must be a finite number >= 0"
  else Ok ()

(* Nominal per-shard service rate: the mean full-allocation service time
   of the request mix.  [offered_load = 1.0] then offers exactly the
   fleet's aggregate capacity under this (optimistic — no queueing, no
   shrinking) model, so loads above 1 saturate by construction. *)
let mean_iters = float_of_int (min_iterations + max_iterations) /. 2.0

let shard_service_cycles suite =
  let total =
    Array.fold_left
      (fun acc name ->
        match List.find_opt (fun (b : Binary.t) -> b.name = name) suite with
        | Some b ->
            acc
            +. (float_of_int
                  (Binary.iteration_cycles b ~pages:(Binary.pages_used b))
               *. mean_iters)
        | None -> acc)
      0.0 mix
  in
  total /. float_of_int (Array.length mix)

(* Virtual time is a float: past 2^53 cycles it no longer resolves one
   cycle, a kernel's remaining time rounds to nothing, and its engine
   posts the same event forever. *)
let max_virtual_time = 0x1p53

let fabric_of arch suite =
  {
    pages = Cgra_arch.Cgra.n_pages arch;
    suite;
    need =
      Array.map
        (fun name ->
          match List.find_opt (fun (b : Binary.t) -> b.name = name) suite with
          | Some b -> Binary.pages_used b
          | None -> 0)
        mix;
    service = shard_service_cycles suite;
    one_page =
      List.fold_left
        (fun acc (b : Binary.t) ->
          if Array.mem b.name mix then max acc (Binary.iteration_cycles b ~pages:1)
          else acc)
        0 suite;
  }

(* An upper bound on the run's last event.  After the last arrival some
   shard always holds a kernel (an empty shard takes any queued
   request), and that kernel either progresses, no slower than one page
   of the slowest shard allows, or stalls [reconfig_cost] cycles in a
   reshape.  A request causes at most [2 * max_pages + 1] such stalls:
   one if it enters shrunk, and one per resident of its shard (at most
   one per page) at each of the resyncs after its grant and its
   release.  So each request adds at most its one-page service time
   plus those stalls. *)
let time_bound p shards requests =
  let one_page = List.fold_left (fun acc s -> max acc s.fabric.one_page) 0 shards in
  let max_pages = List.fold_left (fun acc s -> max acc s.fabric.pages) 0 shards in
  let stalls = p.reconfig_cost *. float_of_int ((2 * max_pages) + 1) in
  Array.fold_left
    (fun acc r -> acc +. float_of_int (r.iterations * one_page) +. stalls)
    (Array.fold_left (fun acc r -> Float.max acc r.arrival) 0.0 requests)
    requests

let run ?pool ?(traced = false) p =
  let* () = validate p in
  let ftrace = if traced then T.make () else T.null in
  let* shards =
    (* one compile and one [fabric] per distinct spec, in fleet order *)
    let fabrics = ref [] in
    let fabric spec =
      match List.assoc_opt spec !fabrics with
      | Some f -> Ok f
      | None -> (
          match Cgra_arch.Cgra.standard ~size:spec.size ~page_pes:spec.page_pes with
          | None ->
              Error
                (Printf.sprintf "farm: bad shard spec %dx%d (page %d PEs)"
                   spec.size spec.size spec.page_pes)
          | Some arch ->
              let* suite = Binary.compile_suite ~seed:p.seed ?pool arch in
              let f = fabric_of arch suite in
              fabrics := (spec, f) :: !fabrics;
              Ok f)
    in
    let rec build i acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest ->
          let* f = fabric spec in
          let strace = if traced then T.make () else T.null in
          let engine =
            Os_sim.Engine.create ~policy:p.policy ~reconfig_cost:p.reconfig_cost
              ~trace:strace ~suite:f.suite ~total_pages:f.pages ~mode:Os_sim.Multi ()
          in
          build (i + 1)
            ({ index = i; spec; fabric = f; engine; strace; steps = 0; served = 0;
               busy_cycles = 0.0 }
            :: acc)
            rest
    in
    build 0 [] p.fleet
  in
  (* open-loop Poisson-style arrivals on the virtual clock *)
  let rng = Cgra_util.Rng.create ~seed:p.seed in
  let capacity =
    List.fold_left (fun acc s -> acc +. (1.0 /. s.fabric.service)) 0.0 shards
  in
  let rate = p.offered_load *. capacity in
  (* each request's kernel as an index into [mix] *)
  let kinds = Array.make p.n_requests 0 in
  let clock = ref 0.0 in
  let requests =
    (* [Array.init] calls its function in index order *)
    Array.init p.n_requests (fun i ->
        clock := !clock +. Cgra_util.Rng.exponential rng ~mean:(1.0 /. rate);
        let tenant = Cgra_util.Rng.int rng p.n_tenants in
        let kind = Cgra_util.Rng.int rng (Array.length mix) in
        let iterations = Cgra_util.Rng.int_in rng min_iterations max_iterations in
        kinds.(i) <- kind;
        { rid = i; tenant; kernel = mix.(kind); iterations; arrival = !clock;
          shard = -1; dispatched = Float.nan; resident_at = Float.nan;
          retired_at = Float.nan; terminal = None })
  in
  let* () =
    if time_bound p shards requests < max_virtual_time then Ok ()
    else
      Error
        (Printf.sprintf
           "farm: at load %g and reconfig cost %g the run could reach 2^53 \
            virtual cycles, past which a float no longer resolves one cycle"
           p.offered_load p.reconfig_cost)
  in
  (* every farm_* payload is built only when tracing: an untraced run
     pays one branch per emission point *)
  if traced then
    T.emit_at ftrace ~time:0.0
      (T.Farm_begin
         { shards = List.length shards; tenants = p.n_tenants;
           queue_bound = p.queue_bound; max_resident = p.max_resident;
           requests = p.n_requests });
  let shard_arr = Array.of_list shards in
  let queues = Array.init p.n_tenants (fun _ -> Queue.create ()) in
  let latency_h = Hist.create () in
  let queue_wait_h = Hist.create () in
  let retired = ref 0 in
  let rejected = ref 0 in
  let rev_log = ref [] in
  let n_steps = ref 0 in
  let process_grant shard_idx rid time =
    let r = requests.(rid) in
    if Float.is_nan r.resident_at then begin
      r.resident_at <- time;
      if traced then
        T.emit_at ftrace ~time (T.Farm_resident { req = rid; shard = shard_idx })
    end
  in
  let process_finish rid time =
    let r = requests.(rid) in
    let s = shard_arr.(r.shard) in
    r.retired_at <- time;
    r.terminal <- Some Retired;
    s.served <- s.served + 1;
    s.busy_cycles <- s.busy_cycles +. (time -. r.dispatched);
    incr retired;
    rev_log := (rid, r.tenant, r.shard, time) :: !rev_log;
    Hist.observe latency_h (time -. r.arrival);
    Hist.observe queue_wait_h (r.dispatched -. r.arrival);
    if traced then
      T.emit_at ftrace ~time
        (T.Farm_retire
           { req = rid; tenant = r.tenant; shard = r.shard;
             latency = time -. r.arrival })
  in
  (* Engine callbacks fire while the coordinator steps or submits to a
     shard; they only touch front-end accounting, never an engine. *)
  List.iter
    (fun s ->
      Os_sim.Engine.set_on_grant s.engine (process_grant s.index);
      Os_sim.Engine.set_on_finish s.engine process_finish)
    shards;
  (* What the coordinator reads of each shard: its next internal event
     (infinity when idle), its in-flight requests and its allocated
     pages.  Only a step or a submit changes an engine, and each is
     followed by [refresh], so the loop and [pick] read these arrays
     instead of asking every engine. *)
  let n_shards = Array.length shard_arr in
  let next_at = Array.make n_shards infinity in
  let in_flight = Array.make n_shards 0 in
  let used = Array.make n_shards 0 in
  let refresh s =
    let i = s.index in
    next_at.(i) <- Os_sim.Engine.next_event s.engine;
    in_flight.(i) <- Os_sim.Engine.in_flight s.engine;
    used.(i) <- s.fabric.pages - Os_sim.Engine.free_pages s.engine
  in
  (* Cost-aware deferral: dispatching a request whose binary does not fit
     in the shard's free pages forces the allocator to shrink residents —
     each squeezed page is a PageMaster reshape priced at
     [reconfig_cost].  When that price exceeds the time until the shard
     next wakes up (its events are finishes and regrants, i.e. chances
     for pages to free up), queueing is the cheaper move and the grant is
     deferred to a later step.  At [reconfig_cost = 0] the estimate is
     always 0, so the policy degenerates to [Least_loaded] exactly. *)
  let affordable s kind now =
    match p.dispatch with
    | Least_loaded -> true
    | Cost_aware ->
        let need = s.fabric.need.(kind) in
        let free = s.fabric.pages - used.(s.index) in
        if free >= need then true
        else
          let reshape = p.reconfig_cost *. float_of_int (need - free) in
          let next = next_at.(s.index) in
          let wake = if next = infinity then 0.0 else next -. now in
          reshape <= wake
  in
  (* One pass over the fleet: among the shards below [max_resident] that
     can afford a request for [mix.(kind)], the one with the fewest
     in-flight requests, then the least allocated fabric, then the lowest
     index — all deterministic signals.  The allocated shares compare as
     integers, [u1 * t2 < u2 * t1]: pages never exceed 256 per shard, so
     two different fractions differ far more than a double rounds, and
     this orders shards exactly as their rounded quotients would.
     [affordable] has no side effect, so it is asked only of a shard
     that would beat the best so far.  [Full] when no shard is
     below [max_resident]: that capacity is fleet-wide. *)
  let pick kind now =
    let full = ref true and best = ref (-1) in
    let best_n = ref max_int and best_used = ref 0 and best_pages = ref 1 in
    for i = 0 to n_shards - 1 do
      let n = in_flight.(i) in
      if n < p.max_resident then begin
        full := false;
        let s = shard_arr.(i) in
        let pages = s.fabric.pages and u = used.(i) in
        if (n < !best_n || (n = !best_n && u * !best_pages < !best_used * pages))
           && affordable s kind now
        then begin
          best := i;
          best_n := n;
          best_used := u;
          best_pages := pages
        end
      end
    done;
    if !full then Full else if !best < 0 then Deferred else Shard shard_arr.(!best)
  in
  let dispatch r (s : shard) now =
    r.shard <- s.index;
    r.dispatched <- now;
    if traced then
      T.emit_at ftrace ~time:now
        (T.Farm_admit { req = r.rid; tenant = r.tenant; shard = s.index });
    (* a submit can grant pages synchronously: the grant callback then
       surfaces the residency now, in admission order *)
    Os_sim.Engine.submit s.engine ~at:now
      {
        Thread_model.id = r.rid;
        segments =
          [ Thread_model.Kernel { kernel = r.kernel; iterations = r.iterations } ];
      };
    refresh s
  in
  (* Drain tenant queues (tenant order, FIFO within a tenant) while some
     shard has admission capacity; a tenant whose head request is
     deferred by the cost model is skipped, not popped, so per-tenant
     FIFO order is preserved.  [pick] reads a request only through its
     kernel, and a pass changes nothing until it dispatches, so a pass
     asks [pick] at most once per kernel: one [Deferred] holds for every
     later tenant whose head request wants that kernel. *)
  let deferred = Array.make (Array.length mix) false in
  let rec scan tid now =
    if tid < p.n_tenants then
      if Queue.is_empty queues.(tid) then scan (tid + 1) now
      else
        let kind = kinds.((Queue.peek queues.(tid)).rid) in
        if deferred.(kind) then scan (tid + 1) now
        else
          match pick kind now with
          | Full -> ()
          | Deferred ->
              deferred.(kind) <- true;
              scan (tid + 1) now
          | Shard s ->
              dispatch (Queue.take queues.(tid)) s now;
              try_dispatch now
  and try_dispatch now =
    Array.fill deferred 0 (Array.length deferred) false;
    scan 0 now
  in
  let admit (r : request) =
    if traced then
      T.emit_at ftrace ~time:r.arrival
        (T.Farm_request
           { req = r.rid; tenant = r.tenant; kernel = r.kernel;
             iterations = r.iterations });
    let q = queues.(r.tenant) in
    if Queue.length q >= p.queue_bound then begin
      r.terminal <- Some Rejected;
      incr rejected;
      if traced then
        T.emit_at ftrace ~time:r.arrival
          (T.Farm_reject
             { req = r.rid; tenant = r.tenant; queue_depth = Queue.length q })
    end
    else Queue.add r q
  in
  (* The coordinator (see farm.mli): step the earliest shard event —
     before an arrival at the same time, lowest index among shards — or
     admit the next arrival, then dispatch at that exact time, so a
     queued request starts the moment capacity frees up, as the paper's
     runtime reshapes kernels the moment a thread arrives or leaves. *)
  let rec loop ai =
    let si = ref (-1) and next = ref infinity in
    for i = 0 to Array.length next_at - 1 do
      if next_at.(i) < !next then begin
        si := i;
        next := next_at.(i)
      end
    done;
    if ai < Array.length requests && requests.(ai).arrival < !next then begin
      let r = requests.(ai) in
      incr n_steps;
      admit r;
      try_dispatch r.arrival;
      loop (ai + 1)
    end
    else if !si >= 0 then begin
      let s = shard_arr.(!si) and now = !next in
      incr n_steps;
      s.steps <- s.steps + 1;
      Os_sim.Engine.run_until s.engine now;
      refresh s;
      try_dispatch now;
      loop ai
    end
  in
  loop 0;
  let makespan =
    Array.fold_left
      (fun acc r ->
        let acc = Float.max acc r.arrival in
        if Float.is_nan r.retired_at then acc else Float.max acc r.retired_at)
      0.0 requests
  in
  if traced then
    T.emit_at ftrace ~time:makespan
      (T.Farm_end { makespan; retired = !retired; rejected = !rejected });
  let shard_reports =
    List.map
      (fun s ->
        {
          s_index = s.index;
          s_spec = s.spec;
          s_pages = s.fabric.pages;
          s_served = s.served;
          s_busy_cycles = s.busy_cycles;
          s_steps = s.steps;
          s_os = Os_sim.Engine.result s.engine;
        })
      shards
  in
  Ok
    {
      params = p;
      offered = p.n_requests;
      retired = !retired;
      rejected = !rejected;
      makespan;
      epochs = !n_steps;
      throughput =
        (if makespan > 0.0 then float_of_int !retired /. makespan *. 1000.0
         else 0.0);
      latency = Hist.summary latency_h;
      queue_wait = Hist.summary queue_wait_h;
      log = List.rev !rev_log;
      requests = Array.to_list requests;
      shard_reports;
      farm_events = T.events ftrace;
      shard_events = List.map (fun s -> T.events s.strace) shards;
    }

let dispatch_name = function
  | Least_loaded -> "least-loaded"
  | Cost_aware -> "cost-aware"

let render ?(log = false) (r : report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let p = r.params in
  pf "farm: %d shards (%s), %d tenants, %d requests, load %.2f, seed %d\n"
    (List.length p.fleet)
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%dx%d" s.size s.size) p.fleet))
    p.n_tenants p.n_requests p.offered_load p.seed;
  pf
    "  policy %s, dispatch %s, reconfig cost %.0f, queue bound %d, max \
     resident %d\n"
    (Allocator.policy_name p.policy)
    (dispatch_name p.dispatch) p.reconfig_cost p.queue_bound p.max_resident;
  pf "  retired %d, rejected %d, makespan %.0f cycles\n" r.retired r.rejected
    r.makespan;
  pf "  throughput %.3f req/kcycle\n" r.throughput;
  pf "  latency    p50 %.0f  p90 %.0f  p99 %.0f  max %.0f cycles\n"
    r.latency.Hist.p50 r.latency.Hist.p90 r.latency.Hist.p99 r.latency.Hist.max;
  pf "  queue wait p50 %.0f  p90 %.0f  p99 %.0f  max %.0f cycles\n"
    r.queue_wait.Hist.p50 r.queue_wait.Hist.p90 r.queue_wait.Hist.p99
    r.queue_wait.Hist.max;
  List.iter
    (fun s ->
      pf "  shard %d (%dx%d, %d pages): served %d, busy %.0f cycles, util %.3f\n"
        s.s_index s.s_spec.size s.s_spec.size s.s_pages s.s_served
        s.s_busy_cycles s.s_os.Os_sim.page_utilization)
    r.shard_reports;
  if log then begin
    pf "retirements:\n";
    List.iter
      (fun (rid, tenant, shard, time) ->
        pf "  r%-4d tenant %d shard %d at %.0f\n" rid tenant shard time)
      r.log
  end;
  Buffer.contents b

(* The front-end observability report: how many loop steps the
   coordinator took and which shards they advanced, how busy each shard
   was, and how uneven the (steal-free) load ended up — dispatch is
   final, work never migrates, so max/mean busy is the true imbalance,
   not a sampling artifact. *)
let render_stats (r : report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "steps: %d coordinator steps (makespan %.0f cycles)\n" r.epochs r.makespan;
  let busy = List.map (fun s -> s.s_busy_cycles) r.shard_reports in
  let total_busy = List.fold_left ( +. ) 0.0 busy in
  let mean_busy = total_busy /. float_of_int (List.length busy) in
  let max_busy = List.fold_left Float.max 0.0 busy in
  List.iter
    (fun s ->
      pf
        "  shard %-2d (%dx%d): steps %-6d busy %8.0f cycles  busy frac %.3f  \
         served %d\n"
        s.s_index s.s_spec.size s.s_spec.size s.s_steps s.s_busy_cycles
        (if r.makespan > 0.0 then s.s_busy_cycles /. r.makespan else 0.0)
        s.s_served)
    r.shard_reports;
  pf "  load imbalance (max/mean busy, steal-free): %.3f\n"
    (if mean_busy > 0.0 then max_busy /. mean_busy else 1.0);
  Buffer.contents b
