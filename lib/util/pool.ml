type task = Run of (unit -> unit) | Stop

type t = {
  pool_width : int;
  tasks : task Queue.t;
  lock : Mutex.t;
  pending : Condition.t;
  mutable helpers : unit Domain.t list;
  mutable live : bool;
}

let domains_from_env () =
  match Sys.getenv_opt "CGRA_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)

let width t = t.pool_width

(* Helper domains loop on the task queue.  [Run] closures are the
   per-batch work loops built by [run_batch]; they never raise (task
   exceptions are captured per item) and return once the batch's item
   counter is exhausted, so executing a stale closure from an already
   completed batch is a no-op. *)
let rec worker t =
  let task =
    Mutex.lock t.lock;
    let rec await () =
      match Queue.take_opt t.tasks with
      | Some tk -> tk
      | None ->
          Condition.wait t.pending t.lock;
          await ()
    in
    let tk = await () in
    Mutex.unlock t.lock;
    tk
  in
  match task with
  | Stop -> ()
  | Run f ->
      f ();
      worker t

let create ?(clamp = true) ?domains () =
  let requested = max 1 (Option.value ~default:(domains_from_env ()) domains) in
  (* Clamp to the machine: domains beyond the core count cannot add
     throughput, but every active domain joins each minor-GC handshake,
     so oversubscribing cores turns each collection into a wait on
     descheduled peers — a pure slowdown.  Results never depend on the
     width (the determinism contract), so clamping is unobservable apart
     from the wall clock.  [clamp:false] keeps the requested width even
     beyond the core count: determinism tests use it to force real
     cross-domain execution on small machines (capped at 64 so a typo
     cannot spawn thousands of domains). *)
  let w =
    if clamp then min requested (Domain.recommended_domain_count ())
    else min requested 64
  in
  let t =
    {
      pool_width = w;
      tasks = Queue.create ();
      lock = Mutex.create ();
      pending = Condition.create ();
      helpers = [];
      live = true;
    }
  in
  if w > 1 then
    t.helpers <- List.init (w - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  if t.live then begin
    t.live <- false;
    Mutex.lock t.lock;
    List.iter (fun _ -> Queue.push Stop t.tasks) t.helpers;
    Condition.broadcast t.pending;
    Mutex.unlock t.lock;
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end

let with_pool ?clamp ?domains f =
  let t = create ?clamp ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body 0 .. body (n-1)] across the pool.  Items are claimed from an
   atomic counter; the caller works its own batch and then waits for the
   last in-flight item.  [body] must not raise.  The completion counter's
   atomic updates publish each item's (plain) result writes to the
   caller. *)
let run_batch t n ~body =
  if n > 0 then begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let fin_lock = Mutex.create () in
    let fin = Condition.create () in
    let step () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          body i;
          let done_ = 1 + Atomic.fetch_and_add completed 1 in
          if done_ = n then begin
            Mutex.lock fin_lock;
            Condition.broadcast fin;
            Mutex.unlock fin_lock
          end;
          go ()
        end
      in
      go ()
    in
    let helpers = min (t.pool_width - 1) (n - 1) in
    if helpers > 0 then begin
      Mutex.lock t.lock;
      for _ = 1 to helpers do
        Queue.push (Run step) t.tasks
      done;
      Condition.broadcast t.pending;
      Mutex.unlock t.lock
    end;
    step ();
    Mutex.lock fin_lock;
    while Atomic.get completed < n do
      Condition.wait fin fin_lock
    done;
    Mutex.unlock fin_lock
  end

(* Evaluate [f ~doomed i] for [i = 0 .. n-1] across the pool, claiming
   indices in order, and return the lowest index that cut the batch — [f]
   returned [true] or raised — or [n] when none did.  [cut] holds the
   lowest cutting index recorded so far: an index above it can no longer
   matter, so it is skipped at claim time, and [doomed] lets a
   long-running evaluation notice mid-flight.  Every index below the final
   cut runs to completion, so the result does not depend on the width; at
   width 1 nothing past it starts.  A raising cut's exception is re-raised:
   the one a sequential run meets first. *)
let first_cut t n f =
  let cut = Atomic.make n in
  let errs = Array.make n None in
  let rec lower i =
    let c = Atomic.get cut in
    if i < c && not (Atomic.compare_and_set cut c i) then lower i
  in
  run_batch t n ~body:(fun i ->
      if i < Atomic.get cut then
        let doomed () = i > Atomic.get cut in
        match f ~doomed i with
        | true -> lower i
        | false -> ()
        | exception e ->
            errs.(i) <- Some (e, Printexc.get_raw_backtrace ());
            lower i);
  let c = Atomic.get cut in
  if c < n then Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) errs.(c);
  c

let map t f xs =
  let xs = Array.of_list xs in
  let out = Array.make (Array.length xs) None in
  ignore
    (first_cut t (Array.length xs) (fun ~doomed:_ i ->
         out.(i) <- Some (f xs.(i));
         false));
  Array.fold_right (fun y acc -> Option.get y :: acc) out []

(* The lowest succeeding index cuts the race; its result is the one a
   sequential first-success scan returns. *)
let race_poll t f xs =
  let xs = Array.of_list xs in
  let found = Array.make (Array.length xs) None in
  let w =
    first_cut t (Array.length xs) (fun ~doomed i ->
        match f ~doomed xs.(i) with
        | Some _ as y ->
            found.(i) <- y;
            true
        | None -> false)
  in
  if w = Array.length xs then None else Option.map (fun y -> (xs.(w), y)) found.(w)

let filter_map t f xs = List.filter_map Fun.id (map t f xs)
