module T = Cgra_trace.Trace
open Cgra_core

(* ----- the farm-stream monitor ----- *)

type req_state = Queued | In_shard of int | Terminal

let monitor ~queue_bound ~max_resident (events : T.event list) =
  let failures = ref [] in
  let err fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let state : (int, req_state) Hashtbl.t = Hashtbl.create 64 in
  let request_time : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let resident : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* per-tenant queued-but-undispatched requests, FIFO *)
  let tenant_q : (int, int Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let queue_of tenant =
    match Hashtbl.find_opt tenant_q tenant with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tenant_q tenant q;
        q
  in
  let in_flight : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let last_time = ref neg_infinity in
  List.iter
    (fun (e : T.event) ->
      let seq = e.T.seq in
      if e.T.time < !last_time then
        err "event %d: time goes backwards (%g after %g)" seq e.T.time !last_time;
      last_time := Float.max !last_time e.T.time;
      match e.T.payload with
      | T.Farm_request r ->
          if Hashtbl.mem state r.req then
            err "event %d: duplicate farm_request for r%d" seq r.req;
          Hashtbl.replace state r.req Queued;
          Hashtbl.replace request_time r.req e.T.time;
          Queue.add r.req (queue_of r.tenant);
          if Queue.length (queue_of r.tenant) > queue_bound + 1 then
            err "event %d: tenant %d queue depth %d beyond bound %d" seq r.tenant
              (Queue.length (queue_of r.tenant))
              queue_bound
      | T.Farm_reject r -> (
          (* a reject must bounce the request we just queued over-bound *)
          match Hashtbl.find_opt state r.req with
          | Some Queued ->
              Hashtbl.replace state r.req Terminal;
              let q = queue_of r.tenant in
              (* the rejected request is the newest entry *)
              let entries = Queue.fold (fun acc x -> x :: acc) [] q in
              (match entries with
              | newest :: _ when newest = r.req ->
                  Queue.clear q;
                  List.iter (fun x -> Queue.add x q) (List.rev (List.tl entries))
              | _ -> err "event %d: farm_reject r%d is not the newest queued" seq r.req)
          | Some _ -> err "event %d: farm_reject for non-queued r%d" seq r.req
          | None -> err "event %d: farm_reject for unknown r%d" seq r.req)
      | T.Farm_admit r -> (
          match Hashtbl.find_opt state r.req with
          | Some Queued -> (
              let q = queue_of r.tenant in
              (match Queue.take_opt q with
              | Some head when head = r.req -> ()
              | Some head ->
                  err "event %d: tenant %d FIFO violated (admitted r%d, head r%d)"
                    seq r.tenant r.req head
              | None -> err "event %d: farm_admit r%d with empty queue" seq r.req);
              Hashtbl.replace state r.req (In_shard r.shard);
              let n = Option.value ~default:0 (Hashtbl.find_opt in_flight r.shard) in
              Hashtbl.replace in_flight r.shard (n + 1);
              if n + 1 > max_resident then
                err "event %d: shard %d in-flight %d beyond max_resident %d" seq
                  r.shard (n + 1) max_resident)
          | Some _ -> err "event %d: farm_admit for non-queued r%d" seq r.req
          | None -> err "event %d: farm_admit for unknown r%d" seq r.req)
      | T.Farm_resident r -> (
          match Hashtbl.find_opt state r.req with
          | Some (In_shard s) ->
              if s <> r.shard then
                err "event %d: r%d resident on shard %d but admitted to %d" seq
                  r.req r.shard s;
              if Hashtbl.mem resident r.req then
                err "event %d: duplicate farm_resident for r%d" seq r.req;
              Hashtbl.replace resident r.req ()
          | Some _ | None ->
              err "event %d: farm_resident for non-admitted r%d" seq r.req)
      | T.Farm_retire r -> (
          match Hashtbl.find_opt state r.req with
          | Some (In_shard s) ->
              if s <> r.shard then
                err "event %d: r%d retired on shard %d but admitted to %d" seq
                  r.req r.shard s;
              if not (Hashtbl.mem resident r.req) then
                err "event %d: r%d retired without ever becoming resident" seq r.req;
              Hashtbl.replace state r.req Terminal;
              let n = Option.value ~default:0 (Hashtbl.find_opt in_flight r.shard) in
              Hashtbl.replace in_flight r.shard (n - 1);
              (match Hashtbl.find_opt request_time r.req with
              | Some t0 ->
                  if Float.abs (e.T.time -. t0 -. r.latency) > 1e-9 then
                    err "event %d: r%d latency %g but span says %g" seq r.req
                      r.latency (e.T.time -. t0)
              | None -> ())
          | Some _ -> err "event %d: farm_retire for non-admitted r%d" seq r.req
          | None -> err "event %d: farm_retire for unknown r%d" seq r.req)
      | T.Farm_end r ->
          let open_reqs =
            Hashtbl.fold
              (fun req s acc -> if s <> Terminal then req :: acc else acc)
              state []
          in
          if open_reqs <> [] then
            err "event %d: farm_end with %d non-terminal requests" seq
              (List.length open_reqs);
          let terminals = Hashtbl.length state in
          if r.retired + r.rejected <> terminals then
            err "event %d: farm_end counts %d+%d but %d requests seen" seq
              r.retired r.rejected terminals
      | _ -> ())
    events;
  List.rev !failures

(* ----- report-level conservation checks ----- *)

let check_report (r : Farm.report) =
  let failures = ref [] in
  let err fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* every request reaches exactly one terminal state, consistently *)
  List.iter
    (fun (q : Farm.request) ->
      match q.Farm.terminal with
      | None -> err "r%d has no terminal state" q.Farm.rid
      | Some Farm.Retired ->
          if Float.is_nan q.Farm.retired_at || q.Farm.shard < 0 then
            err "r%d retired without dispatch accounting" q.Farm.rid
      | Some Farm.Rejected ->
          if not (Float.is_nan q.Farm.dispatched) then
            err "r%d rejected after being dispatched" q.Farm.rid)
    r.Farm.requests;
  if r.Farm.retired + r.Farm.rejected <> r.Farm.offered then
    err "conservation: %d retired + %d rejected <> %d offered" r.Farm.retired
      r.Farm.rejected r.Farm.offered;
  (* admitted requests are never dropped *)
  List.iter
    (fun (q : Farm.request) ->
      if (not (Float.is_nan q.Farm.dispatched)) && q.Farm.terminal <> Some Farm.Retired
      then err "r%d was admitted but never retired" q.Farm.rid)
    r.Farm.requests;
  (* per-tenant FIFO: dispatch order = arrival order among admitted *)
  let by_tenant = Hashtbl.create 8 in
  List.iter
    (fun (q : Farm.request) ->
      if not (Float.is_nan q.Farm.dispatched) then
        Hashtbl.replace by_tenant q.Farm.tenant
          (q :: Option.value ~default:[] (Hashtbl.find_opt by_tenant q.Farm.tenant)))
    r.Farm.requests;
  Hashtbl.iter
    (fun tenant reqs ->
      (* reqs is reverse arrival order; dispatch times must be
         non-decreasing in arrival order *)
      let in_arrival = List.rev reqs in
      ignore
        (List.fold_left
           (fun prev (q : Farm.request) ->
             (match prev with
             | Some (pd, prid) when q.Farm.dispatched < pd ->
                 err "tenant %d FIFO violated: r%d dispatched before r%d" tenant
                   q.Farm.rid prid
             | Some _ | None -> ());
             Some (q.Farm.dispatched, q.Farm.rid))
           None in_arrival))
    by_tenant;
  (* exact-time dispatch: where nothing defers a grant (least-loaded, or
     cost-aware at zero reconfig cost), a queued request can only start
     when a shard frees a slot, so every dispatch lands at the request's
     own arrival or at some request's retire time *)
  let p = r.Farm.params in
  if p.Farm.dispatch = Farm.Least_loaded || p.Farm.reconfig_cost = 0.0 then begin
    let retire_times = Hashtbl.create 64 in
    List.iter
      (fun (q : Farm.request) ->
        if not (Float.is_nan q.Farm.retired_at) then
          Hashtbl.replace retire_times q.Farm.retired_at ())
      r.Farm.requests;
    List.iter
      (fun (q : Farm.request) ->
        let d = q.Farm.dispatched in
        if (not (Float.is_nan d)) && d <> q.Farm.arrival
           && not (Hashtbl.mem retire_times d)
        then
          err "r%d dispatched at %g, neither its arrival (%g) nor a retire time"
            q.Farm.rid d q.Farm.arrival)
      r.Farm.requests
  end;
  List.rev !failures

(* ----- the seeded fuzz harness ----- *)

type outcome = {
  cases : int;
  requests : int;
  events : int;
  failures : string list;
}

let fleets =
  [|
    [ { Farm.size = 4; page_pes = 4 } ];
    [ { Farm.size = 4; page_pes = 4 }; { Farm.size = 4; page_pes = 2 } ];
    [ { Farm.size = 4; page_pes = 4 }; { Farm.size = 6; page_pes = 4 } ];
  |]

let params_of_seed seed =
  let rng = Cgra_util.Rng.create ~seed in
  let fleet = Cgra_util.Rng.choose rng fleets in
  let n_tenants = Cgra_util.Rng.int_in rng 1 4 in
  let n_requests = Cgra_util.Rng.int_in rng 5 40 in
  let offered_load = 0.25 +. Cgra_util.Rng.float rng 3.0 in
  let queue_bound = Cgra_util.Rng.int_in rng 1 4 in
  let max_resident = Cgra_util.Rng.int_in rng 1 6 in
  let policy =
    Cgra_util.Rng.choose rng
      [| Allocator.Halving; Allocator.Cost_halving; Allocator.Repack_equal |]
  in
  let reconfig_cost = float_of_int (Cgra_util.Rng.choose rng [| 0; 10; 50 |]) in
  let dispatch =
    Cgra_util.Rng.choose rng [| Farm.Least_loaded; Farm.Cost_aware |]
  in
  {
    Farm.fleet;
    n_tenants;
    n_requests;
    offered_load;
    queue_bound;
    max_resident;
    seed;
    policy;
    reconfig_cost;
    dispatch;
  }

let check_case seed =
  let p = params_of_seed seed in
  match Farm.run ~traced:true p with
  | Error e -> (p.Farm.n_requests, 0, [ Printf.sprintf "seed %d: %s" seed e ])
  | Ok r ->
      let tag m = Printf.sprintf "seed %d: %s" seed m in
      let farm_failures =
        monitor ~queue_bound:p.Farm.queue_bound ~max_resident:p.Farm.max_resident
          r.Farm.farm_events
        @ check_report r
      in
      (* each shard's OS stream must satisfy the instant-level page
         conservation/disjointness invariants and replay to the engine's
         own aggregate, bit for bit *)
      let shard_failures =
        List.concat
          (List.map2
             (fun (sr : Farm.shard_report) events ->
               List.map
                 (Printf.sprintf "shard %d: %s" sr.Farm.s_index)
                 (Cgra_verify.Os_fuzz.monitor events
                 @ Cgra_verify.Os_fuzz.replay_check sr.Farm.s_os events))
             r.Farm.shard_reports r.Farm.shard_events)
      in
      let events =
        List.length r.Farm.farm_events
        + List.fold_left (fun a es -> a + List.length es) 0 r.Farm.shard_events
      in
      (p.Farm.n_requests, events, List.map tag (farm_failures @ shard_failures))

let run ?pool ~seeds () =
  let one seed = check_case seed in
  let results =
    match pool with
    | Some pool -> Cgra_util.Pool.map pool one seeds
    | None -> List.map one seeds
  in
  List.fold_left
    (fun acc (reqs, events, failures) ->
      {
        cases = acc.cases + 1;
        requests = acc.requests + reqs;
        events = acc.events + events;
        failures = acc.failures @ failures;
      })
    { cases = 0; requests = 0; events = 0; failures = [] }
    results

let pp_outcome ppf o =
  Format.fprintf ppf "farm fuzz: %d cases, %d requests, %d events checked: %s"
    o.cases o.requests o.events
    (if o.failures = [] then "all invariants hold"
     else Printf.sprintf "%d FAILURES" (List.length o.failures))
