type range = { base : int; len : int }

type policy = Halving | Repack_equal | Cost_halving

let policy_name = function
  | Halving -> "halving"
  | Repack_equal -> "repack"
  | Cost_halving -> "cost"

type seg = { range : range; owner : int option (* None = free *) }

type t = {
  total : int;
  policy : policy;
  mutable segs : seg list;  (* sorted by base, covering [0, total) *)
  desired : (int, int) Hashtbl.t;
  trace : Cgra_trace.Trace.t;
}

let create ?(policy = Halving) ?(trace = Cgra_trace.Trace.null) ~total_pages () =
  if total_pages <= 0 then invalid_arg "Allocator.create: no pages";
  {
    total = total_pages;
    policy;
    segs = [ { range = { base = 0; len = total_pages }; owner = None } ];
    desired = Hashtbl.create 16;
    trace;
  }

let normalize segs =
  (* merge adjacent free segments; keep sorted *)
  let sorted = List.sort (fun a b -> compare a.range.base b.range.base) segs in
  let rec merge = function
    | ({ owner = None; range = r1 } as a) :: { owner = None; range = r2 } :: rest
      when r1.base + r1.len = r2.base ->
        merge ({ a with range = { r1 with len = r1.len + r2.len } } :: rest)
    | s :: rest -> s :: merge rest
    | [] -> []
  in
  merge sorted

let free_pages t =
  List.fold_left
    (fun acc s -> match s.owner with None -> acc + s.range.len | Some _ -> acc)
    0 t.segs

let clients t =
  List.filter_map
    (fun s -> Option.map (fun o -> (o, s.range)) s.owner)
    t.segs

let allocation t ~client =
  List.find_map
    (fun s -> if s.owner = Some client then Some s.range else None)
    t.segs

let shrunk_clients t =
  List.filter
    (fun (c, r) ->
      match Hashtbl.find_opt t.desired c with
      | Some d -> r.len < d
      | None -> false)
    (clients t)

(* Carve [want] pages out of a free segment (from its base). *)
let carve t ~client ~want seg =
  let r = seg.range in
  let take = min want r.len in
  let alloc = { base = r.base; len = take } in
  let rest =
    if take = r.len then []
    else [ { range = { base = r.base + take; len = r.len - take }; owner = None } ]
  in
  t.segs <-
    normalize
      (List.concat_map
         (fun s -> if s == seg then { range = alloc; owner = Some client } :: rest else [ s ])
         t.segs);
  alloc

let largest p t =
  List.fold_left
    (fun acc s ->
      if p s then
        match acc with
        | Some best when best.range.len >= s.range.len -> acc
        | Some _ | None -> Some s
      else acc)
    None t.segs

(* Repack every resident plus the newcomer into equal contiguous shares
   (remainder pages spread over the first few, in ring order). *)
let repack_with t ~client =
  let incumbents = List.map fst (clients t) in
  let everyone = incumbents @ [ client ] in
  let n = List.length everyone in
  if n > t.total then None
  else begin
    let share = t.total / n and extra = t.total mod n in
    let segs = ref [] in
    let base = ref 0 in
    List.iteri
      (fun i c ->
        let len = share + if i < extra then 1 else 0 in
        segs := { range = { base = !base; len }; owner = Some c } :: !segs;
        base := !base + len)
      everyone;
    if !base < t.total then
      segs := { range = { base = !base; len = t.total - !base }; owner = None } :: !segs;
    t.segs <- normalize (List.rev !segs);
    allocation t ~client
  end

let trace_range (r : range) =
  { Cgra_trace.Trace.base = r.base; len = r.len }

let request t ~client ~desired =
  if desired <= 0 then invalid_arg "Allocator.request: desired <= 0";
  if allocation t ~client <> None then invalid_arg "Allocator.request: duplicate client";
  Hashtbl.replace t.desired client desired;
  (* snapshot the alternatives the policy is about to weigh, before the
     segment list is rewritten *)
  let considered =
    if Cgra_trace.Trace.enabled t.trace then
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
    else []
  in
  let decided granted =
    Cgra_trace.Trace.emit t.trace
      (Cgra_trace.Trace.Alloc_decision
         { client; desired; granted = Option.map trace_range granted; considered });
    granted
  in
  let halve victim =
    let r = victim.range in
    let keep = r.len / 2 in
    let kept = { range = { base = r.base; len = keep }; owner = victim.owner } in
    let freed =
      { range = { base = r.base + keep; len = r.len - keep }; owner = None }
    in
    t.segs <-
      normalize
        (List.concat_map
           (fun s -> if s == victim then [ kept; freed ] else [ s ])
           t.segs);
    let free_seg =
      match List.find_opt (fun s -> s.range.base = freed.range.base) t.segs with
      | Some s -> s
      | None -> assert false
    in
    Some (carve t ~client ~want:desired free_seg)
  in
  let contended () =
    match t.policy with
    | Repack_equal -> (
        match repack_with t ~client with
        | Some r -> Some r
        | None ->
            Hashtbl.remove t.desired client;
            None)
    | Halving -> (
        (* the paper's policy: shrink the biggest running client to half *)
        match largest (fun s -> s.owner <> None && s.range.len >= 2) t with
        | None ->
            Hashtbl.remove t.desired client;
            None
        | Some victim -> halve victim)
    | Cost_halving -> (
        (* cost-aware victim pick: among residents whose freed half would
           cover the request, shrink the one whose kept half — the pages
           the PageMaster must re-fold, i.e. the Reshape cost — is
           smallest (lowest base on ties, since segs are base-sorted);
           when nobody's freed half is big enough, fall back to the
           classic largest victim so the grant is never smaller than
           under [Halving] *)
        let shrinkable s = s.owner <> None && s.range.len >= 2 in
        let sufficient =
          List.filter
            (fun s -> shrinkable s && s.range.len - (s.range.len / 2) >= desired)
            t.segs
        in
        let victim =
          match sufficient with
          | v :: rest ->
              Some
                (List.fold_left
                   (fun best s ->
                     if s.range.len / 2 < best.range.len / 2 then s else best)
                   v rest)
          | [] -> largest shrinkable t
        in
        match victim with
        | None ->
            Hashtbl.remove t.desired client;
            None
        | Some victim -> halve victim)
  in
  match largest (fun s -> s.owner = None) t with
  | Some free_seg -> decided (Some (carve t ~client ~want:desired free_seg))
  | None -> decided (contended ())

let release t ~client =
  if allocation t ~client = None then invalid_arg "Allocator.release: unknown client";
  Hashtbl.remove t.desired client;
  t.segs <-
    normalize
      (List.map
         (fun s -> if s.owner = Some client then { s with owner = None } else s)
         t.segs)

let expand t =
  let changed = Hashtbl.create 8 in
  let deficit (c, (r : range)) =
    match Hashtbl.find_opt t.desired c with Some d -> d - r.len | None -> 0
  in
  let rec pass () =
    (* grow the adjacent client with the largest deficit into each free
       segment, one step at a time, until stable *)
    let grow =
      List.find_map
        (fun s ->
          match s.owner with
          | Some _ -> None
          | None ->
              let adjacent =
                List.filter
                  (fun (_, (r : range)) ->
                    r.base + r.len = s.range.base || s.range.base + s.range.len = r.base)
                  (clients t)
              in
              let candidates =
                List.filter (fun cr -> deficit cr > 0) adjacent
                |> List.sort (fun a b -> compare (deficit b) (deficit a))
              in
              (match candidates with
              | [] -> None
              | (c, r) :: _ -> Some (s, c, r)))
        t.segs
    in
    match grow with
    | None -> ()
    | Some (free_seg, c, r) ->
        let take = min (deficit (c, r)) free_seg.range.len in
        let before_client = r.base + r.len = free_seg.range.base in
        let new_range =
          if before_client then { base = r.base; len = r.len + take }
          else { base = r.base - take; len = r.len + take }
        in
        let rest_free =
          if take = free_seg.range.len then []
          else if before_client then
            [ { range =
                  { base = free_seg.range.base + take; len = free_seg.range.len - take };
                owner = None } ]
          else
            [ { range = { base = free_seg.range.base; len = free_seg.range.len - take };
                owner = None } ]
        in
        t.segs <-
          normalize
            (List.concat_map
               (fun s ->
                 if s == free_seg then rest_free
                 else if s.owner = Some c then [ { range = new_range; owner = Some c } ]
                 else [ s ])
               t.segs);
        Hashtbl.replace changed c ();
        pass ()
  in
  pass ();
  List.filter (fun (c, _) -> Hashtbl.mem changed c) (clients t)

let pp ppf t =
  List.iter
    (fun s ->
      match s.owner with
      | None -> Format.fprintf ppf "[%d+%d free]" s.range.base s.range.len
      | Some c -> Format.fprintf ppf "[%d+%d c%d]" s.range.base s.range.len c)
    t.segs
