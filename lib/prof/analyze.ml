module T = Cgra_trace.Trace

type run_info = {
  mode : string;
  total_pages : int;
  n_threads : int;
  policy : string;
  reconfig_cost : float;
  rows : int;
  mem_ports : int;
  makespan : float;
  n_events : int;
}

type resident_heat = {
  thread : int;
  page_busy : float array;
  busy_total : float;
}

type row_bus = {
  n_rows : int;
  capacity : float;
  avg : float array;
  peak : float array;
  over_frac : float array;
}

type stall_attrib = {
  thread : int;
  segments : int;
  queueing : float;
  reshape : float;
  execution : float;
  total : float;
}

type reshape_acct = {
  shrinks : int;
  expands : int;
  moves : int;
  pages_rewritten : int;
  reshape_cycles : float;
  entry_cycles : float;
  decisions : int;
  denials : int;
  considered : int;
}

type report = {
  run : run_info;
  residents : resident_heat list;
  row_bus : row_bus option;
  stalls : stall_attrib list;
  reshapes : reshape_acct;
  latency : (int * Metrics.Hist.t) list;
  latency_all : Metrics.Hist.t;
  counters : (string * float) list;
}

(* Slab approximation: page range [base, base+len) maps to the
   proportional row span [floor(base*R/P), ceil((base+len)*R/P)). *)
let row_span ~rows ~pages base len =
  if rows <= 0 || pages <= 0 || len <= 0 then (0, 0)
  else
    let lo = max 0 (min (rows - 1) (base * rows / pages)) in
    let hi = (((base + len) * rows) + pages - 1) / pages in
    let hi = max (lo + 1) (min rows hi) in
    (lo, hi)

(* Per-segment attribution state for one thread. *)
type seg = {
  req_time : float;
  mutable grant_time : float;
  mutable grant_cost : float;
  mutable reshape_cost : float;
}

type resident = {
  mutable r_base : int;
  mutable r_len : int;
  mutable r_mem : int;  (* memory accesses per iteration *)
  mutable r_rate : float;  (* cycles per iteration *)
}

(* No fabric has more pages or row buses than the 2^20 PEs a context
   image may address; the bound keeps a hostile run_begin from sizing the
   per-page and per-row arrays below. *)
let max_extent = 1 lsl 20

(* Every page range an event claims, by field name. *)
let ranges (p : T.payload) =
  match p with
  | T.Kernel_grant r -> [ ("range", r.range) ]
  | T.Kernel_release r -> [ ("range", r.range) ]
  | T.Reshape r -> [ ("before", r.before); ("after", r.after) ]
  | T.Alloc_decision r ->
      Option.fold ~none:[] ~some:(fun g -> [ ("granted", g) ]) r.granted
      @ r.considered
  | _ -> []

(* The first event claiming pages outside [0, total), if any: the fold
   below indexes per-page arrays by these ranges. *)
let out_of_bounds ~total events =
  List.find_map
    (fun (e : T.event) ->
      List.find_map
        (fun (what, (r : T.page_range)) ->
          if r.base >= 0 && r.len >= 0 && r.base <= total - r.len then None
          else
            Some
              (Printf.sprintf "event %d: %s [%d+%d] outside the %d-page fabric"
                 e.seq what r.base r.len total))
        (ranges e.payload))
    events

let profile events =
  (* Pass 1: the run envelope. *)
  let makespan =
    match
      List.find_map
        (fun (e : T.event) ->
          match e.payload with T.Run_end r -> Some r.makespan | _ -> None)
        events
    with
    | Some m -> m
    | None ->
        List.fold_left (fun acc (e : T.event) -> Float.max acc e.time) 0.0
          events
  in
  let header =
    List.find_map
      (fun (e : T.event) ->
        match e.payload with
        | T.Run_begin r ->
            Some
              {
                mode = r.mode;
                total_pages = r.total_pages;
                n_threads = r.n_threads;
                policy = r.policy;
                reconfig_cost = r.reconfig_cost;
                rows = r.rows;
                mem_ports = r.mem_ports;
                makespan;
                n_events = List.length events;
              }
        | _ -> None)
      events
  in
  let checked =
    match header with
    | None -> Error "trace has no run_begin event: nothing to profile"
    | Some h when h.total_pages > max_extent || h.rows > max_extent ->
        Error
          (Printf.sprintf "run_begin claims %d pages and %d row buses (limit %d)"
             h.total_pages h.rows max_extent)
    | Some h -> (
        match out_of_bounds ~total:h.total_pages events with
        | Some e -> Error e
        | None -> Ok h)
  in
  match checked with
  | Error e -> Error e
  | Ok run ->
      let h = run in
      (* Pass 2: the fold. *)
      let pages = max 1 h.total_pages in
      let heat : (int, float array) Hashtbl.t = Hashtbl.create 16 in
      let heat_row tid =
        match Hashtbl.find_opt heat tid with
        | Some a -> a
        | None ->
            let a = Array.make pages 0.0 in
            Hashtbl.add heat tid a;
            a
      in
      let residents : (int, resident) Hashtbl.t = Hashtbl.create 16 in
      (* pending mem count from the segment's request, keyed by thread *)
      let pending_mem : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let segs : (int, seg) Hashtbl.t = Hashtbl.create 16 in
      let done_stalls : (int, stall_attrib) Hashtbl.t = Hashtbl.create 16 in
      let lat : (int, Metrics.Hist.t) Hashtbl.t = Hashtbl.create 16 in
      let lat_all = Metrics.Hist.create () in
      let lat_row tid =
        match Hashtbl.find_opt lat tid with
        | Some hh -> hh
        | None ->
            let hh = Metrics.Hist.create () in
            Hashtbl.add lat tid hh;
            hh
      in
      let shrinks = ref 0 and expands = ref 0 and moves = ref 0 in
      let pages_rewritten = ref 0 in
      let reshape_cycles = ref 0.0 and entry_cycles = ref 0.0 in
      let decisions = ref 0 and denials = ref 0 and considered = ref 0 in
      let counters : (string, float) Hashtbl.t = Hashtbl.create 8 in
      (* Row-bus contention: demand is piecewise constant between
         allocation changes; flush the elapsed interval before applying
         each change. *)
      let bus_on = h.rows > 0 in
      let bus_avg = Array.make (max 1 h.rows) 0.0 in
      let bus_peak = Array.make (max 1 h.rows) 0.0 in
      let bus_over = Array.make (max 1 h.rows) 0.0 in
      let bus_t = ref 0.0 in
      let capacity = float_of_int h.mem_ports in
      let flush_bus now =
        if bus_on && now > !bus_t then begin
          let dt = now -. !bus_t in
          let demand = Array.make h.rows 0.0 in
          Hashtbl.iter
            (fun _ r ->
              if r.r_mem > 0 && r.r_rate > 0.0 then begin
                let lo, hi = row_span ~rows:h.rows ~pages r.r_base r.r_len in
                if hi > lo then begin
                  let per_row =
                    float_of_int r.r_mem /. r.r_rate /. float_of_int (hi - lo)
                  in
                  for i = lo to hi - 1 do
                    demand.(i) <- demand.(i) +. per_row
                  done
                end
              end)
            residents;
          for i = 0 to h.rows - 1 do
            bus_avg.(i) <- bus_avg.(i) +. (demand.(i) *. dt);
            if demand.(i) > bus_peak.(i) then bus_peak.(i) <- demand.(i);
            if demand.(i) > capacity then bus_over.(i) <- bus_over.(i) +. dt
          done;
          bus_t := now
        end
        else if now > !bus_t then bus_t := now
      in
      let close_segment tid now =
        match Hashtbl.find_opt segs tid with
        | None -> ()
        | Some s ->
            Hashtbl.remove segs tid;
            let queueing = s.grant_time -. s.req_time in
            let reshape = s.grant_cost +. s.reshape_cost in
            let total = now -. s.req_time in
            let execution = total -. queueing -. reshape in
            Metrics.Hist.observe (lat_row tid) total;
            Metrics.Hist.observe lat_all total;
            let prev =
              match Hashtbl.find_opt done_stalls tid with
              | Some p -> p
              | None ->
                  { thread = tid; segments = 0; queueing = 0.0; reshape = 0.0;
                    execution = 0.0; total = 0.0 }
            in
            Hashtbl.replace done_stalls tid
              {
                prev with
                segments = prev.segments + 1;
                queueing = prev.queueing +. queueing;
                reshape = prev.reshape +. reshape;
                execution = prev.execution +. execution;
                total = prev.total +. total;
              }
      in
      let handle (e : T.event) =
        match e.payload with
        | T.Run_begin _ | T.Run_end _ | T.Thread_arrival _ | T.Thread_finish _
        | T.Farm_begin _ | T.Farm_request _ | T.Farm_reject _ | T.Farm_admit _
        | T.Farm_resident _ | T.Farm_retire _ | T.Farm_end _
        | T.Span_begin _ | T.Span_end _ | T.Mark _ ->
            ()
        | T.Kernel_request r ->
            Hashtbl.replace pending_mem r.thread r.mem;
            Hashtbl.replace segs r.thread
              { req_time = e.time; grant_time = e.time; grant_cost = 0.0;
                reshape_cost = 0.0 }
        | T.Kernel_stall _ -> ()
        | T.Kernel_grant r ->
            flush_bus e.time;
            (match Hashtbl.find_opt segs r.thread with
            | Some s ->
                s.grant_time <- e.time;
                s.grant_cost <- r.cost
            | None -> ());
            if r.shrunk then entry_cycles := !entry_cycles +. r.cost;
            let mem =
              match Hashtbl.find_opt pending_mem r.thread with
              | Some m -> m
              | None -> 0
            in
            Hashtbl.replace residents r.thread
              { r_base = r.range.T.base; r_len = r.range.T.len; r_mem = mem;
                r_rate = r.rate }
        | T.Reshape r ->
            flush_bus e.time;
            (match r.kind with
            | T.Shrink -> incr shrinks
            | T.Expand -> incr expands
            | T.Move -> incr moves);
            pages_rewritten := !pages_rewritten + r.pages_rewritten;
            reshape_cycles := !reshape_cycles +. r.cost;
            (match Hashtbl.find_opt segs r.thread with
            | Some s -> s.reshape_cost <- s.reshape_cost +. r.cost
            | None -> ());
            (match Hashtbl.find_opt residents r.thread with
            | Some res ->
                res.r_base <- r.after.T.base;
                res.r_len <- r.after.T.len;
                res.r_rate <- r.rate
            | None -> ())
        | T.Kernel_release r ->
            flush_bus e.time;
            Hashtbl.remove residents r.thread;
            close_segment r.thread e.time
        | T.Occupancy r ->
            (* attribute the elapsed interval to the holder's current
               range; the stream guarantees the sample precedes any
               reshape at the same instant *)
            let row = heat_row r.thread in
            let base, len =
              match Hashtbl.find_opt residents r.thread with
              | Some res -> (res.r_base, res.r_len)
              | None -> (0, min r.pages pages)
            in
            for p = base to min (pages - 1) (base + len - 1) do
              row.(p) <- row.(p) +. r.elapsed
            done
        | T.Alloc_decision r ->
            incr decisions;
            if r.granted = None then incr denials;
            considered := !considered + List.length r.considered
        | T.Counter r -> Hashtbl.replace counters r.name r.value
      in
      List.iter handle events;
      flush_bus makespan;
      let residents_out =
        Hashtbl.fold
          (fun tid page_busy acc ->
            { thread = tid; page_busy;
              busy_total = Array.fold_left ( +. ) 0.0 page_busy }
            :: acc)
          heat []
        |> List.sort (fun (a : resident_heat) (b : resident_heat) ->
               compare a.thread b.thread)
      in
      let row_bus_out =
        if not bus_on then None
        else begin
          let avg =
            Array.map
              (fun a -> if makespan > 0.0 then a /. makespan else 0.0)
              bus_avg
          in
          let over =
            Array.map
              (fun o -> if makespan > 0.0 then o /. makespan else 0.0)
              bus_over
          in
          Some
            { n_rows = h.rows; capacity; avg; peak = bus_peak;
              over_frac = over }
        end
      in
      let stalls_out =
        Hashtbl.fold (fun _ s acc -> s :: acc) done_stalls []
        |> List.sort (fun a b -> compare a.thread b.thread)
      in
      let latency_out =
        Hashtbl.fold (fun tid hh acc -> (tid, hh) :: acc) lat []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let counters_out =
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) counters []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Ok
        {
          run;
          residents = residents_out;
          row_bus = row_bus_out;
          stalls = stalls_out;
          reshapes =
            {
              shrinks = !shrinks;
              expands = !expands;
              moves = !moves;
              pages_rewritten = !pages_rewritten;
              reshape_cycles = !reshape_cycles;
              entry_cycles = !entry_cycles;
              decisions = !decisions;
              denials = !denials;
              considered = !considered;
            };
          latency = latency_out;
          latency_all = lat_all;
          counters = counters_out;
        }

let pe_heatmap (m : Cgra_mapper.Mapping.t) =
  let grid = m.arch.Cgra_arch.Cgra.grid in
  let rows = grid.Cgra_arch.Grid.rows and cols = grid.Cgra_arch.Grid.cols in
  let slots = Array.make_matrix rows cols 0.0 in
  let bump (c : Cgra_arch.Coord.t) =
    slots.(c.row).(c.col) <- slots.(c.row).(c.col) +. 1.0
  in
  Array.iter
    (function
      | Some (p : Cgra_mapper.Mapping.placement) -> bump p.pe
      | None -> ())
    m.placements;
  List.iter
    (fun (r : Cgra_mapper.Mapping.route) ->
      List.iter (fun (hop : Cgra_mapper.Mapping.placement) -> bump hop.pe) r.hops)
    m.routes;
  let ii = float_of_int (max 1 m.ii) in
  Array.map (Array.map (fun s -> s /. ii)) slots

type bus_pressure = {
  kernel : string;
  ii : int;
  n_rows : int;
  capacity : int;
  demand : int array array;
  mem_ops : int;
  saturated : int;
  headroom : int;
}

let bus_pressure (m : Cgra_mapper.Mapping.t) =
  let grid = m.arch.Cgra_arch.Cgra.grid in
  let rows = grid.Cgra_arch.Grid.rows in
  let ii = max 1 m.ii in
  let capacity = m.arch.Cgra_arch.Cgra.mem_ports_per_row in
  let demand = Array.make_matrix rows ii 0 in
  let mem_ops = ref 0 in
  Array.iteri
    (fun id p ->
      match p with
      | Some (p : Cgra_mapper.Mapping.placement) ->
          if Cgra_dfg.Op.is_mem (Cgra_dfg.Graph.node m.graph id).op then begin
            incr mem_ops;
            let slot = p.time mod ii in
            demand.(p.pe.Cgra_arch.Coord.row).(slot) <-
              demand.(p.pe.Cgra_arch.Coord.row).(slot) + 1
          end
      | None -> ())
    m.placements;
  let saturated = ref 0 and headroom = ref 0 in
  Array.iter
    (Array.iter (fun d ->
         if d >= capacity then incr saturated
         else headroom := !headroom + (capacity - d)))
    demand;
  {
    kernel = Cgra_dfg.Graph.name m.graph;
    ii;
    n_rows = rows;
    capacity;
    demand;
    mem_ops = !mem_ops;
    saturated = !saturated;
    headroom = !headroom;
  }
