type range = { base : int; len : int }

type policy = Halving | Repack_equal | Cost_halving

let policy_name = function
  | Halving -> "halving"
  | Repack_equal -> "repack"
  | Cost_halving -> "cost"

(* A client's desired size travels with its segment: every rewrite of
   an owned segment below copies it, so no table keyed by client is
   needed. *)
type seg = {
  range : range;
  owner : int option;  (* None = free *)
  desired : int;  (* the owner's request; 0 when free *)
}

type t = {
  total : int;
  policy : policy;
  mutable segs : seg list;  (* sorted by base, covering [0, total) *)
  mutable free : int;  (* pages in free segments *)
  mutable moves : int;  (* rewrites of a resident client's range *)
  trace : Cgra_trace.Trace.t;
  tracing : bool;
}

let unowned range = { range; owner = None; desired = 0 }

let create ?(policy = Halving) ?(trace = Cgra_trace.Trace.null) ~total_pages () =
  if total_pages <= 0 then invalid_arg "Allocator.create: no pages";
  {
    total = total_pages;
    policy;
    segs = [ unowned { base = 0; len = total_pages } ];
    free = total_pages;
    moves = 0;
    trace;
    tracing = Cgra_trace.Trace.enabled trace;
  }

(* Merge adjacent free segments.  Every rewrite below keeps the list in
   base order, so there is nothing to sort; an unchanged tail is shared,
   not copied. *)
let rec normalize segs =
  match segs with
  | ({ owner = None; range = r1; _ } as a) :: { owner = None; range = r2; _ } :: rest
    when r1.base + r1.len = r2.base ->
      normalize ({ a with range = { r1 with len = r1.len + r2.len } } :: rest)
  | s :: rest ->
      let rest' = normalize rest in
      if rest' == rest then segs else s :: rest'
  | [] -> []

(* [segs] with the segment [seg] (physically) replaced by [by]. *)
let rec replace seg by = function
  | [] -> []
  | s :: rest -> if s == seg then by @ rest else s :: replace seg by rest

let is_free s = match s.owner with None -> true | Some _ -> false

let shrinkable s = match s.owner with Some _ -> s.range.len >= 2 | None -> false

let free_pages t = t.free
let moves t = t.moves

let clients t =
  List.filter_map
    (fun s -> Option.map (fun o -> (o, s.range)) s.owner)
    t.segs

let rec owned_by client = function
  | [] -> None
  | { owner = Some o; range; _ } :: _ when o = client -> Some range
  | _ :: rest -> owned_by client rest

let allocation t ~client = owned_by client t.segs

let shrunk_clients t =
  List.filter_map
    (fun s ->
      match s.owner with
      | Some c when s.range.len < s.desired -> Some (c, s.range)
      | Some _ | None -> None)
    t.segs

(* Carve up to [desired] pages out of a free segment (from its base). *)
let carve t ~client ~desired seg =
  let r = seg.range in
  let take = min desired r.len in
  let alloc = { base = r.base; len = take } in
  let rest =
    if take = r.len then [] else [ unowned { base = r.base + take; len = r.len - take } ]
  in
  t.segs <-
    normalize (replace seg ({ range = alloc; owner = Some client; desired } :: rest) t.segs);
  t.free <- t.free - take;
  alloc

(* The longest segment satisfying [p]; the lowest base among equals. *)
let rec largest p best = function
  | [] -> best
  | s :: rest ->
      let best =
        if p s then
          match best with
          | Some b when b.range.len >= s.range.len -> best
          | Some _ | None -> Some s
        else best
      in
      largest p best rest

(* Among the shrinkable segments whose freed half covers [desired], the
   one with the smallest kept half; the lowest base among equals. *)
let rec cheapest desired best = function
  | [] -> best
  | s :: rest ->
      let best =
        if shrinkable s && s.range.len - (s.range.len / 2) >= desired then
          match best with
          | Some b when b.range.len / 2 <= s.range.len / 2 -> best
          | Some _ | None -> Some s
        else best
      in
      cheapest desired best rest

(* Repack every resident plus the newcomer into equal contiguous shares
   (remainder pages spread over the first few, in ring order). *)
let repack_with t ~client ~desired =
  let incumbents =
    List.filter_map
      (fun s -> Option.map (fun o -> (o, s.desired)) s.owner)
      t.segs
  in
  let everyone = incumbents @ [ (client, desired) ] in
  let n = List.length everyone in
  if n > t.total then None
  else begin
    let share = t.total / n and extra = t.total mod n in
    let segs = ref [] in
    let base = ref 0 in
    List.iteri
      (fun i (c, desired) ->
        let len = share + if i < extra then 1 else 0 in
        segs := { range = { base = !base; len }; owner = Some c; desired } :: !segs;
        base := !base + len)
      everyone;
    if !base < t.total then
      segs := unowned { base = !base; len = t.total - !base } :: !segs;
    t.segs <- normalize (List.rev !segs);
    t.free <- t.total - !base;
    t.moves <- t.moves + 1;
    allocation t ~client
  end

(* Halve [victim] and serve the newcomer from the freed half. *)
let halve t ~client ~desired victim =
  let r = victim.range in
  let keep = r.len / 2 in
  let kept = { victim with range = { base = r.base; len = keep } } in
  let freed = unowned { base = r.base + keep; len = r.len - keep } in
  t.segs <- normalize (replace victim [ kept; freed ] t.segs);
  t.free <- t.free + freed.range.len;
  t.moves <- t.moves + 1;
  let free_seg =
    match List.find_opt (fun s -> s.range.base = freed.range.base) t.segs with
    | Some s -> s
    | None -> assert false
  in
  Some (carve t ~client ~desired free_seg)

(* No free segment: the policy decides whom to shrink. *)
let contended t ~client ~desired =
  let shrink = function
    | Some victim -> halve t ~client ~desired victim
    | None -> None
  in
  match t.policy with
  | Repack_equal -> repack_with t ~client ~desired
  | Halving ->
      (* the paper's policy: shrink the biggest running client to half *)
      shrink (largest shrinkable None t.segs)
  | Cost_halving ->
      (* cost-aware victim pick: among residents whose freed half would
         cover the request, shrink the one whose kept half — the pages
         the PageMaster must re-fold, i.e. the Reshape cost — is
         smallest (lowest base on ties, since segs are base-sorted);
         when nobody's freed half is big enough, fall back to the
         classic largest victim so the grant is never smaller than
         under [Halving] *)
      shrink
        (match cheapest desired None t.segs with
        | Some _ as v -> v
        | None -> largest shrinkable None t.segs)

let trace_range (r : range) =
  { Cgra_trace.Trace.base = r.base; len = r.len }

(* The alternatives the policy is about to weigh, as a decision trace
   records them. *)
let considered t =
  List.filter_map
    (fun s ->
      match (s.owner, t.policy) with
      | None, _ -> Some ("free", trace_range s.range)
      | Some o, Halving when s.range.len >= 2 ->
          Some (Printf.sprintf "halve c%d" o, trace_range s.range)
      | Some o, Cost_halving when s.range.len >= 2 ->
          (* the rewrite cost of halving this victim: the kept half the
             PageMaster must re-fold *)
          Some
            ( Printf.sprintf "halve c%d cost=%d" o (s.range.len / 2),
              trace_range s.range )
      | Some o, Repack_equal ->
          Some (Printf.sprintf "repack c%d" o, trace_range s.range)
      | Some _, (Halving | Cost_halving) -> None)
    t.segs

let request t ~client ~desired =
  if desired <= 0 then invalid_arg "Allocator.request: desired <= 0";
  (match allocation t ~client with
  | Some _ -> invalid_arg "Allocator.request: duplicate client"
  | None -> ());
  (* snapshot the alternatives before the segment list is rewritten *)
  let considered = if t.tracing then considered t else [] in
  let granted =
    match largest is_free None t.segs with
    | Some free_seg -> Some (carve t ~client ~desired free_seg)
    | None -> contended t ~client ~desired
  in
  if t.tracing then
    Cgra_trace.Trace.emit t.trace
      (Cgra_trace.Trace.Alloc_decision
         { client; desired; granted = Option.map trace_range granted; considered });
  granted

(* [segs] with [client]'s segment freed; the segments after it are
   shared, not copied. *)
let rec free_client client = function
  | [] -> []
  | ({ owner = Some o; _ } as s) :: rest when o = client ->
      unowned s.range :: rest
  | s :: rest -> s :: free_client client rest

let release t ~client =
  match allocation t ~client with
  | None -> invalid_arg "Allocator.release: unknown client"
  | Some r ->
      t.free <- t.free + r.len;
      t.segs <- normalize (free_client client t.segs)

(* How far a segment's owner is below its desired size (0 when free). *)
let deficit s = match s.owner with None -> 0 | Some _ -> s.desired - s.range.len

(* The first free segment (lowest base) next to a client below its
   desired size, with that client's segment and deficit: of its two
   neighbours, the one with the larger deficit, the lower one on ties.
   Free segments are merged, so both neighbours are clients; [prev] is
   the segment before the list, or the head itself (a free segment's
   deficit is 0). *)
let rec growable prev = function
  | [] -> None
  | ({ owner = None; _ } as free) :: rest ->
      let left = deficit prev in
      let right = match rest with s :: _ -> deficit s | [] -> 0 in
      if left > 0 && left >= right then Some (free, prev, left)
      else if right > 0 then Some (free, List.hd rest, right)
      else growable free rest
  | s :: rest -> growable s rest

let expand t =
  (* grow the adjacent client with the largest deficit into each free
     segment, one step at a time, until stable *)
  let rec pass changed =
    match growable (List.hd t.segs) t.segs with
    | None -> changed
    | Some (free_seg, client_seg, deficit) ->
        let r = client_seg.range in
        let take = min deficit free_seg.range.len in
        let before_client = r.base + r.len = free_seg.range.base in
        let new_range =
          if before_client then { base = r.base; len = r.len + take }
          else { base = r.base - take; len = r.len + take }
        in
        let rest_free =
          if take = free_seg.range.len then []
          else if before_client then
            [ unowned
                { base = free_seg.range.base + take; len = free_seg.range.len - take } ]
          else [ unowned { base = free_seg.range.base; len = free_seg.range.len - take } ]
        in
        t.segs <-
          normalize
            (replace client_seg
               [ { client_seg with range = new_range } ]
               (replace free_seg rest_free t.segs));
        t.free <- t.free - take;
        t.moves <- t.moves + 1;
        pass (Option.get client_seg.owner :: changed)
  in
  match pass [] with
  | [] -> []
  | changed -> List.filter (fun (c, _) -> List.mem c changed) (clients t)

let pp ppf t =
  List.iter
    (fun s ->
      match s.owner with
      | None -> Format.fprintf ppf "[%d+%d free]" s.range.base s.range.len
      | Some c -> Format.fprintf ppf "[%d+%d c%d]" s.range.base s.range.len c)
    t.segs
