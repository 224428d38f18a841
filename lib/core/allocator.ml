type range = { base : int; len : int }

type policy = Halving | Repack_equal | Cost_halving

let policy_name = function
  | Halving -> "halving"
  | Repack_equal -> "repack"
  | Cost_halving -> "cost"

(* A client holding pages, with the size it asked for. *)
type resident = { client : int; mutable range : range; desired : int }

(* Free space is never stored: the free runs are the gaps between
   consecutive residents, before the first and after the last. *)
type t = {
  total : int;
  policy : policy;
  mutable residents : resident list;  (* sorted by base, disjoint *)
  mutable free : int;  (* pages no resident holds *)
  mutable moves : int;  (* rewrites of a resident client's range *)
  trace : Cgra_trace.Trace.t;
  tracing : bool;
}

let create ?(policy = Halving) ?(trace = Cgra_trace.Trace.null) ~total_pages () =
  if total_pages <= 0 then invalid_arg "Allocator.create: no pages";
  {
    total = total_pages;
    policy;
    residents = [];
    free = total_pages;
    moves = 0;
    trace;
    tracing = Cgra_trace.Trace.enabled trace;
  }

let end_of r = r.range.base + r.range.len
let deficit r = r.desired - r.range.len
let free_pages t = t.free
let moves t = t.moves
let clients t = List.map (fun r -> (r.client, r.range)) t.residents

let rec find client = function
  | [] -> None
  | r :: rest -> if r.client = client then Some r else find client rest

let allocation t ~client = Option.map (fun r -> r.range) (find client t.residents)

let shrunk_clients t =
  List.filter_map
    (fun r -> if r.range.len < r.desired then Some (r.client, r.range) else None)
    t.residents

(* [held] over the residents in the list and [free] over the free runs
   between them from page [lo] on, in base order, threading [acc].  It
   is top-level so that the walk every request makes allocates no
   closure. *)
let rec fold_from t ~free ~held lo acc = function
  | [] -> if t.total > lo then free { base = lo; len = t.total - lo } acc else acc
  | r :: rest ->
      let gap = r.range.base - lo in
      let acc = if gap > 0 then free { base = lo; len = gap } acc else acc in
      fold_from t ~free ~held (end_of r) (held r acc) rest

let fold_runs t ~free ~held acc = fold_from t ~free ~held 0 acc t.residents

(* The longest free run; the lowest base among equals. *)
let largest_run t =
  fold_runs t
    ~free:(fun run best -> if run.len > best.len then run else best)
    ~held:(fun _ best -> best)
    { base = 0; len = 0 }

(* [residents] with [r] in its place by base; the residents after it are
   shared, not copied. *)
let rec insert r = function
  | s :: rest when s.range.base < r.range.base -> s :: insert r rest
  | rest -> r :: rest

(* Seat the newcomer on up to [desired] pages of the free run [run],
   from its base. *)
let carve t ~client ~desired run =
  let range = { base = run.base; len = min desired run.len } in
  t.residents <- insert { client; range; desired } t.residents;
  t.free <- t.free - range.len;
  range

(* The resident of two pages or more that satisfies [ok] and that no
   other one [beats]; the lowest base among equals. *)
let rec victim ok beats best = function
  | [] -> best
  | r :: rest ->
      let best =
        if r.range.len >= 2 && ok r then
          match best with Some b when not (beats r b) -> best | Some _ | None -> Some r
        else best
      in
      victim ok beats best rest

let largest = victim (fun _ -> true) (fun r b -> r.range.len > b.range.len) None

(* Repack every resident plus the newcomer into equal contiguous shares
   (remainder pages spread over the first few, in ring order).  The
   shares add up to every page, so nothing is left free. *)
let repack_with t ~client ~desired =
  let n = List.length t.residents + 1 in
  if n > t.total then None
  else begin
    let share = t.total / n and extra = t.total mod n in
    List.iteri
      (fun i r ->
        let len = share + if i < extra then 1 else 0 in
        r.range <- { base = (i * share) + min i extra; len })
      t.residents;
    let range = { base = t.total - share; len = share } in
    t.residents <- t.residents @ [ { client; range; desired } ];
    t.free <- 0;
    t.moves <- t.moves + 1;
    Some range
  end

(* Halve [victim] and serve the newcomer from the freed half.  Nothing
   is free when a victim is halved, so the freed half is a free run of
   its own. *)
let halve t ~client ~desired victim =
  let r = victim.range in
  let keep = r.len / 2 in
  victim.range <- { base = r.base; len = keep };
  t.free <- t.free + r.len - keep;
  t.moves <- t.moves + 1;
  Some (carve t ~client ~desired { base = r.base + keep; len = r.len - keep })

(* No free run: the policy decides whom to shrink. *)
let contended t ~client ~desired =
  let shrink = function
    | Some victim -> halve t ~client ~desired victim
    | None -> None
  in
  match t.policy with
  | Repack_equal -> repack_with t ~client ~desired
  | Halving ->
      (* the paper's policy: shrink the biggest running client to half *)
      shrink (largest t.residents)
  | Cost_halving -> (
      (* cost-aware victim pick: among residents whose freed half would
         cover the request, shrink the one whose kept half — the pages
         the PageMaster must re-fold, i.e. the Reshape cost — is
         smallest (lowest base on ties, since residents are
         base-sorted); when nobody's freed half is big enough, fall back
         to the classic largest victim so the grant is never smaller
         than under [Halving] *)
      let covers r = r.range.len - (r.range.len / 2) >= desired in
      let cheaper r b = r.range.len / 2 < b.range.len / 2 in
      shrink
        (match victim covers cheaper None t.residents with
        | Some _ as v -> v
        | None -> largest t.residents))

let trace_range (r : range) =
  { Cgra_trace.Trace.base = r.base; len = r.len }

(* The alternatives the policy is about to weigh, free runs and
   residents in base order, as a decision trace records them. *)
let considered t =
  let weighed r acc =
    match t.policy with
    | Halving when r.range.len >= 2 ->
        (Printf.sprintf "halve c%d" r.client, trace_range r.range) :: acc
    | Cost_halving when r.range.len >= 2 ->
        (* the rewrite cost of halving this victim: the kept half the
           PageMaster must re-fold *)
        ( Printf.sprintf "halve c%d cost=%d" r.client (r.range.len / 2),
          trace_range r.range )
        :: acc
    | Repack_equal -> (Printf.sprintf "repack c%d" r.client, trace_range r.range) :: acc
    | Halving | Cost_halving -> acc
  in
  List.rev
    (fold_runs t ~free:(fun run acc -> ("free", trace_range run) :: acc) ~held:weighed [])

let request t ~client ~desired =
  if desired <= 0 then invalid_arg "Allocator.request: desired <= 0";
  if Option.is_some (find client t.residents) then
    invalid_arg "Allocator.request: duplicate client";
  (* snapshot the alternatives before any range is rewritten *)
  let considered = if t.tracing then considered t else [] in
  let granted =
    if t.free > 0 then Some (carve t ~client ~desired (largest_run t))
    else contended t ~client ~desired
  in
  if t.tracing then
    Cgra_trace.Trace.emit t.trace
      (Cgra_trace.Trace.Alloc_decision
         { client; desired; granted = Option.map trace_range granted; considered });
  granted

(* [residents] less [client]'s, whose pages are counted free; the
   residents after it are shared, not copied. *)
let rec remove t client = function
  | [] -> invalid_arg "Allocator.release: unknown client"
  | r :: rest when r.client = client ->
      t.free <- t.free + r.range.len;
      rest
  | r :: rest -> r :: remove t client rest

let release t ~client = t.residents <- remove t client t.residents

(* Give [r] [take] more pages, its range now starting at [base]. *)
let stretch t r ~base take =
  r.range <- { base; len = r.range.len + take };
  t.free <- t.free - take;
  t.moves <- t.moves + 1

(* Grow into the free run after [p], up to the next resident (the head
   of [rest]) or the last page, whichever of the two is below its
   desired size, the one with the larger deficit (the lower one on
   ties); look at what is left of the run again, then go on to the next
   run.  Returns [grown] with every resident grown added. *)
let rec grow_after t grown p rest =
  let lo = end_of p in
  let hi = match rest with r :: _ -> r.range.base | [] -> t.total in
  let left = deficit p and right = match rest with r :: _ -> deficit r | [] -> 0 in
  if hi > lo && left > 0 && left >= right then begin
    stretch t p ~base:p.range.base (min left (hi - lo));
    grow_after t (p :: grown) p rest
  end
  else
    match rest with
    | r :: _ when hi > lo && right > 0 ->
        let take = min right (hi - lo) in
        stretch t r ~base:(r.range.base - take) take;
        grow_after t (r :: grown) p rest
    | r :: rest -> grow_after t grown r rest
    | [] -> grown

let expand t =
  match t.residents with
  | [] -> []
  | first :: rest -> (
      (* only the first resident borders the free run at the head *)
      let head = min (deficit first) first.range.base in
      let grown =
        if head > 0 then begin
          stretch t first ~base:(first.range.base - head) head;
          [ first ]
        end
        else []
      in
      match grow_after t grown first rest with
      | [] -> []
      | grown ->
          List.filter_map
            (fun r -> if List.memq r grown then Some (r.client, r.range) else None)
            t.residents)

let pp ppf t =
  fold_runs t
    ~free:(fun run () -> Format.fprintf ppf "[%d+%d free]" run.base run.len)
    ~held:(fun r () -> Format.fprintf ppf "[%d+%d c%d]" r.range.base r.range.len r.client)
    ()
