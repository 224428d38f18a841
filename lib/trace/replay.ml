open Trace

type aggregates = {
  makespan : float;
  finishes : (int * float) list;
  total_ops : float;
  ipc : float;
  busy_page_cycles : float;
  page_utilization : float;
  transformations : int;
  stalls : int;
}

(* The accumulations below mirror Os_sim.run operation for operation —
   same operands, same order — so the floats come out identical, not
   merely close.  Do not "simplify" e.g. [elapsed *. float pages] into a
   pre-multiplied event field. *)
let aggregates events =
  let total_pages = ref None in
  let total_ops = ref 0.0 in
  let busy = ref 0.0 in
  let transformations = ref 0 in
  let stalls = ref 0 in
  let finishes = ref [] in
  List.iter
    (fun (e : event) ->
      match e.payload with
      | Run_begin r -> total_pages := Some r.total_pages
      | Kernel_request r -> total_ops := !total_ops +. float_of_int r.ops
      | Occupancy r -> busy := !busy +. (r.elapsed *. float_of_int r.pages)
      | Kernel_stall _ -> incr stalls
      | Reshape _ -> incr transformations
      | Kernel_grant r -> if r.shrunk then incr transformations
      | Thread_finish r -> finishes := (r.thread, e.time) :: !finishes
      | Run_end _ | Thread_arrival _ | Kernel_release _ | Alloc_decision _
      | Farm_begin _ | Farm_request _ | Farm_reject _ | Farm_admit _
      | Farm_resident _ | Farm_retire _ | Farm_end _
      | Counter _ | Span_begin _ | Span_end _ | Mark _ ->
          ())
    events;
  match !total_pages with
  | None -> Error "no run_begin event in the stream"
  | Some pages ->
      let finishes =
        List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !finishes)
      in
      let makespan =
        List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 finishes
      in
      Ok
        {
          makespan;
          finishes;
          total_ops = !total_ops;
          ipc = (if makespan > 0.0 then !total_ops /. makespan else 0.0);
          busy_page_cycles = !busy;
          page_utilization =
            (if makespan > 0.0 then !busy /. (makespan *. float_of_int pages)
             else 0.0);
          transformations = !transformations;
          stalls = !stalls;
        }

let wait_intervals events =
  let since = Hashtbl.create 8 in
  let served = ref [] in
  List.iter
    (fun (e : event) ->
      match e.payload with
      | Kernel_stall r ->
          if not (Hashtbl.mem since r.thread) then
            Hashtbl.replace since r.thread e.time
      | Kernel_grant r -> (
          match Hashtbl.find_opt since r.thread with
          | Some t0 ->
              Hashtbl.remove since r.thread;
              served := (r.thread, e.time -. t0) :: !served
          | None -> ())
      | _ -> ())
    events;
  List.rev !served

type wait_stats = { n : int; mean : float; p95 : float; max : float }

let wait_statistics events =
  match wait_intervals events with
  | [] -> { n = 0; mean = 0.0; p95 = 0.0; max = 0.0 }
  | waits ->
      let xs = List.map snd waits in
      {
        n = List.length xs;
        mean = Cgra_util.Stats.mean xs;
        p95 = Cgra_util.Stats.percentile 95.0 xs;
        max = Cgra_util.Stats.maximum xs;
      }
