open Cgra_arch
open Cgra_core

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let suite_for a =
  match Binary.compile_suite a with
  | Ok s -> s
  | Error e -> Alcotest.failf "compile_suite: %s" e

let suite_4x4_p4 = lazy (suite_for (arch 4 4))

(* ---------- Allocator ---------- *)

let ranges_cover_and_disjoint (al : Allocator.t) total =
  let covered = Array.make total 0 in
  List.iter
    (fun (_, (r : Allocator.range)) ->
      for i = r.base to r.base + r.len - 1 do
        covered.(i) <- covered.(i) + 1
      done)
    (Allocator.clients al);
  Array.for_all (fun c -> c <= 1) covered

let test_alloc_simple_request () =
  let al = Allocator.create ~total_pages:8 () in
  (match Allocator.request al ~client:1 ~desired:3 with
  | Some r -> Alcotest.(check int) "granted 3" 3 r.len
  | None -> Alcotest.fail "request failed");
  Alcotest.(check int) "free" 5 (Allocator.free_pages al)

let test_alloc_fits_unused_portion () =
  (* the paper: a kernel that fits in the unused portion disturbs no one *)
  let al = Allocator.create ~total_pages:8 () in
  let r1 = Option.get (Allocator.request al ~client:1 ~desired:3) in
  let r2 = Option.get (Allocator.request al ~client:2 ~desired:4) in
  Alcotest.(check int) "client 1 untouched" 3
    (Option.get (Allocator.allocation al ~client:1)).len;
  Alcotest.(check bool) "disjoint" true (ranges_cover_and_disjoint al 8);
  ignore (r1, r2)

let test_alloc_halving_preemption () =
  let al = Allocator.create ~total_pages:8 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:8) in
  (* fabric full: next request halves the big holder *)
  let r2 = Option.get (Allocator.request al ~client:2 ~desired:8) in
  let r1 = Option.get (Allocator.allocation al ~client:1) in
  Alcotest.(check int) "victim halved" 4 r1.len;
  Alcotest.(check int) "newcomer gets the other half" 4 r2.len;
  Alcotest.(check bool) "disjoint" true (ranges_cover_and_disjoint al 8)

let test_alloc_exhaustion () =
  let al = Allocator.create ~total_pages:2 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:1) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:1) in
  (* everyone at one page: nothing can shrink *)
  Alcotest.(check bool) "third must wait" true
    (Allocator.request al ~client:3 ~desired:1 = None)

let test_alloc_release_merges () =
  let al = Allocator.create ~total_pages:8 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:4) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:4) in
  Allocator.release al ~client:1;
  Allocator.release al ~client:2;
  (match Allocator.request al ~client:3 ~desired:8 with
  | Some r -> Alcotest.(check int) "whole fabric again" 8 r.len
  | None -> Alcotest.fail "merge failed")

let test_alloc_expand_after_release () =
  let al = Allocator.create ~total_pages:8 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:8) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:8) in
  (* both now at 4; client 2 leaves; client 1 should expand back to 8 *)
  Allocator.release al ~client:2;
  let grants = Allocator.expand al in
  Alcotest.(check bool) "client 1 expanded" true
    (List.exists (fun (c, (r : Allocator.range)) -> c = 1 && r.len = 8) grants)

let test_alloc_expand_respects_desired () =
  let al = Allocator.create ~total_pages:8 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:3) in
  let grants = Allocator.expand al in
  Alcotest.(check (list (pair int int))) "no over-expansion" []
    (List.map (fun (c, (r : Allocator.range)) -> (c, r.len)) grants)

let test_alloc_release_unknown () =
  let al = Allocator.create ~total_pages:4 () in
  Alcotest.(check bool) "raises" true
    (try
       Allocator.release al ~client:9;
       false
     with Invalid_argument _ -> true)

let test_alloc_shrunk_clients () =
  let al = Allocator.create ~total_pages:4 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:4) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:2) in
  let shrunk = Allocator.shrunk_clients al in
  Alcotest.(check bool) "client 1 is below desire" true
    (List.exists (fun (c, _) -> c = 1) shrunk)

let test_alloc_repack_policy () =
  let al = Allocator.create ~policy:Allocator.Repack_equal ~total_pages:9 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:9) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:9) in
  let r3 = Option.get (Allocator.request al ~client:3 ~desired:9) in
  (* 9 pages over 3 clients: 3 each *)
  Alcotest.(check int) "equal share" 3 r3.len;
  List.iter
    (fun (_, (r : Allocator.range)) -> Alcotest.(check int) "everyone equal" 3 r.len)
    (Allocator.clients al);
  Alcotest.(check bool) "disjoint" true (ranges_cover_and_disjoint al 9)

let test_alloc_repack_exhaustion () =
  let al = Allocator.create ~policy:Allocator.Repack_equal ~total_pages:2 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:2) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:2) in
  Alcotest.(check bool) "third must wait" true
    (Allocator.request al ~client:3 ~desired:1 = None)

(* A shrink storm where the two policies must diverge: c1 holds 8, c2
   holds 4, and a newcomer wants 2.  Halving always shrinks the largest
   holder (c1, re-folding 4 kept pages); Cost_halving notices c2's
   freed half also covers the request and re-folds only 2 kept pages. *)
let test_alloc_cost_halving_picks_cheap_victim () =
  let build policy =
    let al = Allocator.create ~policy ~total_pages:12 () in
    let _ = Option.get (Allocator.request al ~client:1 ~desired:8) in
    let _ = Option.get (Allocator.request al ~client:2 ~desired:4) in
    let r3 = Option.get (Allocator.request al ~client:3 ~desired:2) in
    (al, r3)
  in
  let al_h, r3_h = build Allocator.Halving in
  Alcotest.(check int) "halving shrinks the big holder" 4
    (Option.get (Allocator.allocation al_h ~client:1)).len;
  Alcotest.(check int) "halving leaves c2 alone" 4
    (Option.get (Allocator.allocation al_h ~client:2)).len;
  Alcotest.(check int) "halving grant" 2 r3_h.len;
  let al_c, r3_c = build Allocator.Cost_halving in
  Alcotest.(check int) "cost policy leaves the big holder alone" 8
    (Option.get (Allocator.allocation al_c ~client:1)).len;
  Alcotest.(check int) "cost policy shrinks the cheaper victim" 2
    (Option.get (Allocator.allocation al_c ~client:2)).len;
  Alcotest.(check int) "grant no smaller than halving's" 2 r3_c.len;
  Alcotest.(check bool) "disjoint" true (ranges_cover_and_disjoint al_c 12)

(* When no resident's freed half covers the request, Cost_halving falls
   back to the largest victim — a grant never smaller than Halving's. *)
let test_alloc_cost_halving_fallback () =
  let al = Allocator.create ~policy:Allocator.Cost_halving ~total_pages:12 () in
  let _ = Option.get (Allocator.request al ~client:1 ~desired:8) in
  let _ = Option.get (Allocator.request al ~client:2 ~desired:4) in
  let r3 = Option.get (Allocator.request al ~client:3 ~desired:3) in
  (* c2's freed half is 2 < 3; only halving c1 covers the request *)
  Alcotest.(check int) "big holder halved" 4
    (Option.get (Allocator.allocation al ~client:1)).len;
  Alcotest.(check int) "c2 untouched" 4
    (Option.get (Allocator.allocation al ~client:2)).len;
  Alcotest.(check int) "newcomer served from the freed half" 3 r3.len;
  Alcotest.(check bool) "disjoint" true (ranges_cover_and_disjoint al 12)

(* One fixed sequence under each policy: contention, two expands (one
   grows a resident under Repack_equal and under Cost_halving) and
   releases that leave free space at the head, between residents and at
   the tail; the printed allocator and its client list are pinned. *)
let test_alloc_printer_pinned () =
  let run policy =
    let al = Allocator.create ~policy ~total_pages:16 () in
    let request client desired = ignore (Allocator.request al ~client ~desired) in
    let release client = Allocator.release al ~client in
    request 1 8;
    request 2 6;
    request 3 8;
    request 4 2;
    release 4;
    request 5 3;
    request 6 1;
    release 3;
    ignore (Allocator.expand al);
    release 1;
    release 6;
    ignore (Allocator.expand al);
    ( Format.asprintf "%a" Allocator.pp al,
      List.map (fun (c, (r : Allocator.range)) -> (c, r.base, r.len)) (Allocator.clients al) )
  in
  List.iter
    (fun (policy, printed, clients) ->
      let got_printed, got_clients = run policy in
      let name = Allocator.policy_name policy in
      Alcotest.(check string) (name ^ " printer") printed got_printed;
      Alcotest.(check (list (triple int int int))) (name ^ " clients") clients got_clients)
    [ (Allocator.Halving, "[0+4 free][4+3 c5][7+1 free][8+6 c2][14+2 free]",
       [ (5, 4, 3); (2, 8, 6) ]);
      (Allocator.Repack_equal, "[0+4 free][4+6 c2][10+2 free][12+3 c5][15+1 free]",
       [ (2, 4, 6); (5, 12, 3) ]);
      (Allocator.Cost_halving, "[0+3 free][3+6 c2][9+2 free][11+3 c5][14+2 free]",
       [ (2, 3, 6); (5, 11, 3) ]) ]

(* The list allocator as it was before its bookkeeping stopped
   allocating (running free count, owner match, sort-free normalize,
   no per-expand table), kept verbatim (less its printer and policy names) as the
   reference for the differential test below. *)
module Reference_allocator = struct
  type range = { base : int; len : int }

  type policy = Halving | Repack_equal | Cost_halving

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
end

let test_alloc_random_sequences () =
  (* property: under any grant/release order and any policy, live
     allocations are non-empty, in-bounds, and pairwise disjoint — and
     every traced Alloc_decision grants a range drawn from the
     alternatives it weighed *)
  let module T = Cgra_trace.Trace in
  List.iter
    (fun seed ->
      let rng = Cgra_util.Rng.create ~seed in
      let total = Cgra_util.Rng.choose rng [| 4; 8; 9; 16 |] in
      let policy =
        Cgra_util.Rng.choose rng
          [| Allocator.Halving; Allocator.Repack_equal; Allocator.Cost_halving |]
      in
      let trace = T.make () in
      let al = Allocator.create ~policy ~trace ~total_pages:total () in
      let next = ref 0 in
      let ctx fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "seed %d (%d pages, op %d): %s" seed total !next s)
          fmt
      in
      for op = 0 to 39 do
        next := op;
        let live = List.map fst (Allocator.clients al) in
        (if live <> [] && Cgra_util.Rng.int rng 3 = 0 then
           let c = List.nth live (Cgra_util.Rng.int rng (List.length live)) in
           Allocator.release al ~client:c
         else begin
           let c = !next + 1000 in
           ignore (Allocator.request al ~client:c ~desired:(Cgra_util.Rng.int_in rng 1 total))
         end);
        let cover = Array.make total 0 in
        List.iter
          (fun (c, (r : Allocator.range)) ->
            if r.len < 1 then Alcotest.fail (ctx "client %d holds empty range" c);
            if r.base < 0 || r.base + r.len > total then
              Alcotest.fail (ctx "client %d out of bounds [%d+%d]" c r.base r.len);
            for i = r.base to r.base + r.len - 1 do
              cover.(i) <- cover.(i) + 1
            done)
          (Allocator.clients al);
        Array.iteri
          (fun i c ->
            if c > 1 then Alcotest.fail (ctx "page %d granted to %d clients" i c))
          cover
      done;
      (* every granted decision must offer the grant among its alternatives *)
      List.iter
        (fun (e : T.event) ->
          match e.payload with
          | T.Alloc_decision { granted = Some g; considered; client; _ } ->
              if considered = [] then
                Alcotest.fail
                  (ctx "client %d granted [%d+%d] with no alternatives recorded"
                     client g.T.base g.T.len);
              let covered =
                List.init g.T.len (fun i -> g.T.base + i)
                |> List.for_all (fun pg ->
                       List.exists
                         (fun (_, (r : T.page_range)) ->
                           pg >= r.base && pg < r.base + r.len)
                         considered)
              in
              if not covered then
                Alcotest.fail
                  (ctx "client %d granted [%d+%d] outside every considered range"
                     client g.T.base g.T.len)
          | _ -> ())
        (T.events trace))
    (List.init 30 Fun.id)

(* The allocator against its reference copy above: seeded request,
   release and expand sequences over every policy and 1-16 pages, with
   duplicate requests and unknown releases mixed in.  After every
   operation the return value (or the raised error), [clients] (sorted
   by base), [shrunk_clients], [free_pages] and the traced
   [Alloc_decision] stream must equal the reference's, and [moves] must
   have risen if the operation changed a resident client's range.  A
   second, untraced allocator fed the same operations must agree too:
   tracing never changes a decision. *)
let test_alloc_matches_reference () =
  let module T = Cgra_trace.Trace in
  let module R = Reference_allocator in
  let module Rng = Cgra_util.Rng in
  let range (r : Allocator.range) = (r.base, r.len) in
  let rrange (r : R.range) = (r.base, r.len) in
  let outcome f = match f () with v -> Ok v | exception Invalid_argument e -> Error e in
  let denials = ref 0 and shrinks = ref 0 and growths = ref 0 and errors = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let total = Rng.int_in rng 1 16 in
      let policy, rpolicy =
        Rng.choose rng
          [| (Allocator.Halving, R.Halving); (Allocator.Repack_equal, R.Repack_equal);
             (Allocator.Cost_halving, R.Cost_halving) |]
      in
      let trace = T.make () and rtrace = T.make () in
      let al = Allocator.create ~policy ~trace ~total_pages:total () in
      let quiet = Allocator.create ~policy ~total_pages:total () in
      let reference = R.create ~policy:rpolicy ~trace:rtrace ~total_pages:total () in
      for op = 0 to 59 do
        let fail what =
          Alcotest.failf "seed %d (%s, %d pages), op %d: %s differs from the reference"
            seed (Allocator.policy_name policy) total op what
        in
        let same what want got got_quiet =
          if got <> want || got_quiet <> want then fail what
        in
        let live = List.map fst (R.clients reference) in
        let pick () = List.nth live (Rng.int rng (List.length live)) in
        let resident al = (Allocator.clients al, Allocator.moves al) in
        let before = resident al and before_quiet = resident quiet in
        (match Rng.int rng 10 with
        | k when k < 5 || live = [] ->
            (* a fresh client, now and then a live one again *)
            let client = if k = 0 && live <> [] then pick () else op in
            let desired = Rng.int_in rng 1 (total + 2) in
            let run request al =
              outcome (fun () -> Option.map range (request al ~client ~desired))
            in
            let want = outcome (fun () -> Option.map rrange (R.request reference ~client ~desired)) in
            (match want with Ok None -> incr denials | Error _ -> incr errors | Ok (Some _) -> ());
            same "request" want (run Allocator.request al) (run Allocator.request quiet)
        | k when k < 8 ->
            let client = if k = 5 then -1 else pick () in
            let want = outcome (fun () -> R.release reference ~client) in
            (match want with Error _ -> incr errors | Ok () -> ());
            same "release" want
              (outcome (fun () -> Allocator.release al ~client))
              (outcome (fun () -> Allocator.release quiet ~client))
        | _ ->
            let grants al expand = List.map (fun (c, r) -> (c, range r)) (expand al) in
            let want = List.map (fun (c, r) -> (c, rrange r)) (R.expand reference) in
            if want <> [] then incr growths;
            same "expand" want (grants al Allocator.expand) (grants quiet Allocator.expand));
        let clients al = List.map (fun (c, r) -> (c, range r)) (Allocator.clients al) in
        same "clients"
          (List.map (fun (c, r) -> (c, rrange r)) (R.clients reference))
          (clients al) (clients quiet);
        let shrunk al = List.map (fun (c, r) -> (c, range r)) (Allocator.shrunk_clients al) in
        let want_shrunk = List.map (fun (c, r) -> (c, rrange r)) (R.shrunk_clients reference) in
        if want_shrunk <> [] then incr shrinks;
        same "shrunk_clients" want_shrunk (shrunk al) (shrunk quiet);
        same "free_pages" (R.free_pages reference) (Allocator.free_pages al)
          (Allocator.free_pages quiet);
        (* a client resident before the operation whose range it changed
           was moved: the move count rose *)
        let counted al (clients, moves) =
          let moved =
            List.exists
              (fun (c, r) ->
                match Allocator.allocation al ~client:c with
                | Some r' -> r' <> r
                | None -> false)
              clients
          in
          if moved && Allocator.moves al <= moves then fail "the move count"
        in
        counted al before;
        counted quiet before_quiet;
        if T.events trace <> T.events rtrace then fail "the Alloc_decision stream"
      done)
    (List.init 300 Fun.id);
  (* every path ran: denied requests, shrunk residents, expansions, and
     refused duplicate or unknown clients *)
  List.iter
    (fun (what, n) ->
      if n < 50 then Alcotest.failf "only %d %s over the corpus" n what)
    [ ("denials", !denials); ("operations with a shrunk client", !shrinks);
      ("expansions", !growths); ("refused operations", !errors) ]

let test_os_reconfig_cost_slows () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:21 ~n_threads:8 ~cgra_need:0.875 ~suite () in
  let params = { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  let free = Os_sim.run params in
  let costly = Os_sim.run ~reconfig_cost:500.0 params in
  Alcotest.(check bool) "reshapes happened" true (free.transformations > 0);
  Alcotest.(check bool) "cost slows the system" true (costly.makespan > free.makespan);
  Alcotest.(check bool) "still terminates" true
    (List.length costly.finishes = List.length free.finishes)

let test_os_reconfig_cost_zero_is_default () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:22 ~n_threads:4 ~cgra_need:0.75 ~suite () in
  let params = { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check (float 0.0)) "explicit zero equals default"
    (Os_sim.run params).makespan
    (Os_sim.run ~reconfig_cost:0.0 params).makespan

let test_os_repack_policy_runs () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:23 ~n_threads:8 ~cgra_need:0.75 ~suite () in
  let params = { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  let halving = Os_sim.run params in
  let repack = Os_sim.run ~policy:Allocator.Repack_equal params in
  Alcotest.(check int) "all finish" (List.length halving.finishes)
    (List.length repack.finishes);
  Alcotest.(check bool) "repack reshapes at least as much" true
    (repack.transformations >= halving.transformations)

let prop_alloc_invariants =
  QCheck.Test.make ~name:"allocator keeps ranges disjoint and in bounds" ~count:100
    QCheck.(list (pair (int_range 0 5) (int_range 1 8)))
    (fun ops ->
      let total = 8 in
      let al = Allocator.create ~total_pages:total () in
      let active = Hashtbl.create 8 in
      let next_id = ref 0 in
      List.iter
        (fun (kind, amount) ->
          if kind <= 3 then begin
            incr next_id;
            match Allocator.request al ~client:!next_id ~desired:amount with
            | Some _ -> Hashtbl.replace active !next_id ()
            | None -> ()
          end
          else begin
            (match Hashtbl.fold (fun c () _ -> Some c) active None with
            | Some c ->
                Allocator.release al ~client:c;
                Hashtbl.remove active c
            | None -> ());
            ignore (Allocator.expand al)
          end)
        ops;
      ranges_cover_and_disjoint al total
      && List.for_all
           (fun (_, (r : Allocator.range)) -> r.base >= 0 && r.base + r.len <= total)
           (Allocator.clients al))

(* ---------- Binary ---------- *)

let test_binary_compile_suite () =
  let suite = Lazy.force suite_4x4_p4 in
  Alcotest.(check int) "eleven binaries" 11 (List.length suite);
  List.iter
    (fun (b : Binary.t) ->
      Alcotest.(check bool) (b.name ^ " base valid") true
        (Cgra_mapper.Mapping.validate b.base = Ok ());
      Alcotest.(check bool) (b.name ^ " paged valid") true
        (Cgra_mapper.Mapping.validate b.paged = Ok ()))
    suite

let test_binary_iteration_cycles () =
  let suite = Lazy.force suite_4x4_p4 in
  let b = List.find (fun (b : Binary.t) -> b.name = "laplace") suite in
  let n = Binary.pages_used b in
  Alcotest.(check int) "full allocation runs at II_c" (Binary.ii_paged b)
    (Binary.iteration_cycles b ~pages:n);
  Alcotest.(check int) "one page costs factor N"
    (Binary.ii_paged b * n)
    (Binary.iteration_cycles b ~pages:1)

(* ---------- Thread model & workload ---------- *)

let test_thread_model_accessors () =
  let t =
    {
      Thread_model.id = 7;
      segments =
        [
          Thread_model.Cpu 100;
          Thread_model.Kernel { kernel = "mpeg"; iterations = 10 };
          Thread_model.Cpu 50;
          Thread_model.Kernel { kernel = "sobel"; iterations = 5 };
          Thread_model.Kernel { kernel = "mpeg"; iterations = 3 };
        ];
    }
  in
  Alcotest.(check (list string)) "kernels" [ "mpeg"; "sobel" ] (Thread_model.kernel_names t);
  Alcotest.(check int) "cpu" 150 (Thread_model.total_cpu t);
  Alcotest.(check (list (pair string int))) "iterations"
    [ ("mpeg", 13); ("sobel", 5) ]
    (Thread_model.cgra_iterations t)

let test_workload_deterministic () =
  let suite = Lazy.force suite_4x4_p4 in
  let a = Workload.generate ~seed:3 ~n_threads:4 ~cgra_need:0.75 ~suite () in
  let b = Workload.generate ~seed:3 ~n_threads:4 ~cgra_need:0.75 ~suite () in
  Alcotest.(check bool) "same workload" true (a = b);
  let c = Workload.generate ~seed:4 ~n_threads:4 ~cgra_need:0.75 ~suite () in
  Alcotest.(check bool) "seed changes workload" false (a = c)

let test_workload_need_fraction () =
  let suite = Lazy.force suite_4x4_p4 in
  List.iter
    (fun need ->
      let threads = Workload.generate ~seed:11 ~n_threads:8 ~cgra_need:need ~suite () in
      let kernel_cycles =
        List.fold_left
          (fun acc (t : Thread_model.t) ->
            List.fold_left
              (fun acc (name, iters) ->
                let b = List.find (fun (b : Binary.t) -> b.name = name) suite in
                acc + (iters * Binary.ii_base b))
              acc (Thread_model.cgra_iterations t))
          0 threads
      in
      let cpu_cycles =
        List.fold_left (fun acc t -> acc + Thread_model.total_cpu t) 0 threads
      in
      let measured =
        float_of_int kernel_cycles /. float_of_int (kernel_cycles + cpu_cycles)
      in
      Alcotest.(check bool)
        (Printf.sprintf "need %.3f measured %.3f" need measured)
        true
        (Float.abs (measured -. need) < 0.08))
    [ 0.5; 0.75; 0.875 ]

let test_workload_invalid_need () =
  let suite = Lazy.force suite_4x4_p4 in
  List.iter
    (fun need ->
      Alcotest.(check bool) (Printf.sprintf "need %g raises" need) true
        (try
           ignore (Workload.generate ~seed:0 ~n_threads:1 ~cgra_need:need ~suite ());
           false
         with Invalid_argument _ -> true))
    [ 1.0; 0.0; Float.nan ]

(* ---------- Os_sim ---------- *)

let single_kernel_thread ?(id = 0) name iterations =
  { Thread_model.id; segments = [ Thread_model.Kernel { kernel = name; iterations } ] }

let test_os_single_thread_times () =
  let suite = Lazy.force suite_4x4_p4 in
  let b = List.find (fun (b : Binary.t) -> b.name = "laplace") suite in
  let threads = [ single_kernel_thread "laplace" 10 ] in
  let single =
    Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Single }
  in
  Alcotest.(check (float 0.01)) "single runs at II_b"
    (float_of_int (10 * Binary.ii_base b))
    single.makespan;
  let multi = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check (float 0.01)) "multi alone runs at II_c"
    (float_of_int (10 * Binary.ii_paged b))
    multi.makespan

let test_os_single_mode_serializes () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads =
    [ single_kernel_thread ~id:0 "laplace" 10; single_kernel_thread ~id:1 "laplace" 10 ]
  in
  let r = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Single } in
  let b = List.find (fun (b : Binary.t) -> b.name = "laplace") suite in
  Alcotest.(check (float 0.01)) "serialized"
    (float_of_int (2 * 10 * Binary.ii_base b))
    r.makespan;
  Alcotest.(check int) "one stall" 1 r.stalls

let test_os_multi_mode_overlaps () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads =
    [ single_kernel_thread ~id:0 "gsr" 20; single_kernel_thread ~id:1 "gsr" 20 ]
  in
  let b = List.find (fun (b : Binary.t) -> b.name = "gsr") suite in
  (* gsr uses 1 page: both threads run side by side at full paged speed *)
  let r = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check (float 0.01)) "perfect overlap"
    (float_of_int (20 * Binary.ii_paged b))
    r.makespan;
  Alcotest.(check int) "no stalls" 0 r.stalls

let test_os_shrink_on_contention () =
  let suite = Lazy.force suite_4x4_p4 in
  (* two threads both wanting the whole 4-page fabric *)
  let threads =
    [ single_kernel_thread ~id:0 "swim" 20; single_kernel_thread ~id:1 "swim" 20 ]
  in
  let r = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check bool) "transformations happened" true (r.transformations > 0);
  (* space multiplexing is never worse than full serialization at paged
     speed (equal when both threads need the whole fabric: each runs at
     half speed on half the pages) *)
  let b = List.find (fun (b : Binary.t) -> b.name = "swim") suite in
  Alcotest.(check bool) "no worse than serialization" true
    (r.makespan <= float_of_int (2 * 20 * Binary.ii_paged b) +. 0.01)

let test_os_total_ops_mode_independent () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:5 ~n_threads:6 ~cgra_need:0.75 ~suite () in
  let s = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Single } in
  let m = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check (float 0.001)) "same kernel work" s.total_ops m.total_ops

let test_os_all_threads_finish () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:9 ~n_threads:16 ~cgra_need:0.875 ~suite () in
  let r = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check int) "all finish" 16 (List.length r.finishes);
  List.iter
    (fun (_, f) -> Alcotest.(check bool) "finite finish" true (f > 0.0 && f <= r.makespan))
    r.finishes

let test_os_utilization_bounds () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:2 ~n_threads:8 ~cgra_need:0.75 ~suite () in
  List.iter
    (fun mode ->
      let r = Os_sim.run { suite; threads; total_pages = 4; mode } in
      Alcotest.(check bool) "utilization in [0,1]" true
        (r.page_utilization >= 0.0 && r.page_utilization <= 1.0 +. 1e-9))
    [ Os_sim.Single; Os_sim.Multi ]

let test_os_multithreading_wins_under_load () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:1 ~n_threads:8 ~cgra_need:0.875 ~suite () in
  let s = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Single } in
  let m = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check bool) "positive improvement" true
    (Os_sim.improvement_percent ~single:s ~multi:m > 0.0)

let test_os_deterministic () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = Workload.generate ~seed:13 ~n_threads:4 ~cgra_need:0.5 ~suite () in
  let r1 = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  let r2 = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check (float 0.0)) "same makespan" r1.makespan r2.makespan

let test_os_multi_exact_stalls () =
  (* two late arrivals contend for a fully occupied fabric; each must be
     counted stalled exactly once.  Regression: a failed restart attempt
     from the waiter queue used to re-enqueue the thread and count a
     second stall for it. *)
  let suite = Lazy.force suite_4x4_p4 in
  let hold id = single_kernel_thread ~id "gsr" 40 in
  let late id delay =
    {
      Thread_model.id;
      segments =
        [ Thread_model.Cpu delay; Thread_model.Kernel { kernel = "gsr"; iterations = 1 } ];
    }
  in
  (* gsr occupies one page: threads 0-3 fill all four pages before the
     late threads ask, and all four release at the same instant, so the
     second waiter's first restart attempt fails *)
  let threads = [ hold 0; hold 1; hold 2; hold 3; late 4 5; late 5 7 ] in
  let r = Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Multi } in
  Alcotest.(check int) "all finish" 6 (List.length r.finishes);
  Alcotest.(check int) "exactly two stalls" 2 r.stalls

let test_os_unknown_kernel () =
  let suite = Lazy.force suite_4x4_p4 in
  let threads = [ single_kernel_thread "nonexistent" 3 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Os_sim.run { suite; threads; total_pages = 4; mode = Os_sim.Single });
       false
     with Invalid_argument _ -> true)

(* ---------- Metrics ---------- *)

let test_metrics_ipc () =
  Alcotest.(check (float 1e-9)) "ipc" 4.5 (Metrics.ipc_of_kernel ~ops:9 ~ii:2);
  Alcotest.(check (float 1e-9)) "utilization" 0.28125
    (Metrics.utilization_of_kernel ~ops:9 ~ii:2 ~pes:16)

let test_metrics_identity () =
  let kernels = [ (9, 2); (14, 3); (22, 4) ] in
  Alcotest.(check bool) "IPC = N * U_a" true
    (Metrics.ipc_identity_gap ~pes:16 kernels < 1e-9)

let test_metrics_aggregate () =
  Alcotest.(check (float 1e-9)) "sum of rates" 7.0
    (Metrics.aggregate_ipc [ (8, 2); (9, 3) ])

(* ---------- Page_schedule ---------- *)

let test_page_schedule_of_mapping () =
  let suite = Lazy.force suite_4x4_p4 in
  let b = List.find (fun (b : Binary.t) -> b.name = "laplace") suite in
  let ps = Page_schedule.of_mapping b.paged in
  Alcotest.(check int) "ii" (Binary.ii_paged b) ps.ii;
  Alcotest.(check int) "pages" (Binary.pages_used b) ps.n_pages;
  Alcotest.(check bool) "occupancy in (0,1]" true
    (Page_schedule.occupancy ps > 0.0 && Page_schedule.occupancy ps <= 1.0);
  (* all non-const ops appear exactly once *)
  let total =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a l -> a + List.length l) acc row)
      0 ps.ops
  in
  let non_const =
    List.length
      (List.filter
         (fun (n : Cgra_dfg.Graph.node) ->
           match n.op with Cgra_dfg.Op.Const _ -> false | _ -> true)
         (Cgra_dfg.Graph.nodes b.graph))
  in
  Alcotest.(check int) "ops accounted" non_const total

let test_page_schedule_relocated_base () =
  (* regression: of_mapping sized its rows by the number of used pages
     but indexed them by absolute page id, crashing on any mapping whose
     pages do not start at page 0 *)
  let suite = Lazy.force suite_4x4_p4 in
  let b = List.find (fun (b : Binary.t) -> b.name = "mpeg") suite in
  let n = Binary.pages_used b in
  Alcotest.(check bool) "kernel leaves room to relocate" true (4 > n);
  let base = 4 - n in
  let relocated =
    match Transform.fold ~base_page:base ~target_pages:n b.paged with
    | Ok sh ->
        Alcotest.(check bool) "relocation PE-exact" true sh.Transform.pe_exact;
        { sh.Transform.mapping with Cgra_mapper.Mapping.paged = true }
    | Error e -> Alcotest.failf "relocation failed: %s" e
  in
  let ps = Page_schedule.of_mapping relocated in
  Alcotest.(check int) "one row per used page" n ps.n_pages;
  Alcotest.(check (array int)) "absolute page ids"
    (Array.init n (fun i -> base + i))
    ps.page_ids;
  let total =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a l -> a + List.length l) acc row)
      0 ps.ops
  in
  let non_const =
    List.length
      (List.filter
         (fun (nd : Cgra_dfg.Graph.node) ->
           match nd.op with Cgra_dfg.Op.Const _ -> false | _ -> true)
         (Cgra_dfg.Graph.nodes b.graph))
  in
  Alcotest.(check int) "ops accounted" non_const total

let test_page_schedule_pp () =
  let suite = Lazy.force suite_4x4_p4 in
  let b = List.hd suite in
  let ps = Page_schedule.of_mapping b.paged in
  let s = Format.asprintf "%a" Page_schedule.pp ps in
  Alcotest.(check bool) "non-empty rendering" true (String.length s > 20)

(* ---------- Engine edges (the farm coordinator's contract) ---------- *)

let kernel_thread ?(iterations = 4) id =
  {
    Thread_model.id;
    segments = [ Thread_model.Kernel { kernel = "mpeg"; iterations } ];
  }

let fresh_engine () =
  Os_sim.Engine.create ~suite:(Lazy.force suite_4x4_p4) ~total_pages:4
    ~mode:Os_sim.Multi ()

let test_engine_rejects_out_of_order_submit () =
  let e = fresh_engine () in
  Os_sim.Engine.submit e ~at:100.0 (kernel_thread 1);
  (* an arrival before the previous submit's horizon must raise *)
  (try
     Os_sim.Engine.submit e ~at:50.0 (kernel_thread 2);
     Alcotest.fail "submit before the horizon did not raise"
   with Invalid_argument _ -> ());
  (* ... and so must an arrival beyond a still-pending internal event:
     the caller has to settle the engine up to [at] first *)
  let te = Os_sim.Engine.next_event e in
  if te = infinity then Alcotest.fail "submitted kernel thread queued no event";
  (try
     Os_sim.Engine.submit e ~at:(te +. 1000.0) (kernel_thread 3);
     Alcotest.fail "submit past a pending event did not raise"
   with Invalid_argument _ -> ());
  (* the failed submits left the engine usable: thread 1 still drains *)
  Os_sim.Engine.drain e;
  Alcotest.(check int) "only the valid thread ran" 1
    (List.length (Os_sim.Engine.result e).Os_sim.finishes)

(* Duplicate ids are refused whatever order ids arrive in: above, below
   or equal to every earlier id.  A refused submit leaves the engine
   usable. *)
let test_engine_rejects_duplicate_ids () =
  let e = fresh_engine () in
  let submit id = Os_sim.Engine.submit e ~at:0.0 (kernel_thread id) in
  let refused id =
    match submit id with
    | () -> Alcotest.failf "duplicate id %d accepted" id
    | exception Invalid_argument _ -> ()
  in
  submit 5;
  refused 5;
  submit 3;
  submit 9;
  List.iter refused [ 3; 5; 9 ];
  submit 4;
  submit min_int;
  refused min_int;
  Os_sim.Engine.drain e;
  Alcotest.(check (list int)) "the accepted threads ran, in submission order"
    [ 5; 3; 9; 4; min_int ]
    (List.map fst (Os_sim.Engine.result e).Os_sim.finishes)

(* A NaN or infinite reshape cost would post events at non-finite times
   and never drain: the engine refuses it up front, like a negative one. *)
let test_engine_rejects_non_finite_cost () =
  List.iter
    (fun cost ->
      match
        Os_sim.Engine.create ~reconfig_cost:cost ~suite:(Lazy.force suite_4x4_p4)
          ~total_pages:4 ~mode:Os_sim.Multi ()
      with
      | _ -> Alcotest.failf "reconfig cost %g accepted" cost
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0 ]

(* A non-finite arrival makes the kernel's remaining time NaN, so drain
   would re-post its event at the same time forever, and a NaN would also
   switch off every later ordering check.  The engine refuses it before
   touching any state: the same thread id is then accepted at a finite
   time and drains. *)
let test_engine_rejects_non_finite_arrival () =
  let e = fresh_engine () in
  List.iteri
    (fun i at ->
      (match Os_sim.Engine.submit e ~at (kernel_thread ~iterations:10 i) with
      | () -> Alcotest.failf "arrival at %g accepted" at
      | exception Invalid_argument _ -> ());
      Os_sim.Engine.submit e ~at:(float_of_int (1000 * i))
        (kernel_thread ~iterations:10 i);
      Os_sim.Engine.drain e;
      Alcotest.(check int)
        (Printf.sprintf "nothing in flight after refusing %g" at)
        0 (Os_sim.Engine.in_flight e))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "every finite submit finished" 3
    (List.length (Os_sim.Engine.result e).Os_sim.finishes)

let test_engine_drain_empty () =
  let e = fresh_engine () in
  (* draining an engine with nothing submitted is a no-op, not an error *)
  Os_sim.Engine.drain e;
  Alcotest.(check bool) "still idle" true (Os_sim.Engine.next_event e = infinity);
  Alcotest.(check int) "nothing in flight" 0 (Os_sim.Engine.in_flight e);
  let r = Os_sim.Engine.result e in
  Alcotest.(check int) "no finishes" 0 (List.length r.Os_sim.finishes);
  Alcotest.check (Alcotest.float 0.0) "zero makespan" 0.0 r.Os_sim.makespan

let test_engine_run_until_inclusive () =
  (* [run_until t] steps events at exactly [t] — the case the farm's
     event loop depends on: a shard advanced to its next event time must
     have consumed every event landing on that instant *)
  let e = fresh_engine () in
  Os_sim.Engine.submit e ~at:0.0 (kernel_thread 1);
  let te = Os_sim.Engine.next_event e in
  if te = infinity then Alcotest.fail "submitted kernel thread queued no event";
  Alcotest.(check bool) "first iteration lands after time 0" true (te > 0.0);
  (* a bound strictly before the event leaves it pending *)
  Os_sim.Engine.run_until e (te /. 2.0);
  Alcotest.(check (float 0.0)) "strictly-before bound is exclusive" te
    (Os_sim.Engine.next_event e);
  (* a bound exactly at the event consumes it *)
  Os_sim.Engine.run_until e te;
  let te' = Os_sim.Engine.next_event e in
  if te' <= te then
    Alcotest.failf "event at the bound survived run_until (next %g <= %g)" te' te;
  Os_sim.Engine.drain e;
  Alcotest.(check int) "thread finished" 0 (Os_sim.Engine.in_flight e)

let () =
  Alcotest.run "runtime"
    [
      ( "allocator",
        [
          Alcotest.test_case "simple request" `Quick test_alloc_simple_request;
          Alcotest.test_case "fits unused portion" `Quick test_alloc_fits_unused_portion;
          Alcotest.test_case "halving preemption" `Quick test_alloc_halving_preemption;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "release merges" `Quick test_alloc_release_merges;
          Alcotest.test_case "expand after release" `Quick test_alloc_expand_after_release;
          Alcotest.test_case "expand respects desired" `Quick
            test_alloc_expand_respects_desired;
          Alcotest.test_case "release unknown" `Quick test_alloc_release_unknown;
          Alcotest.test_case "shrunk clients" `Quick test_alloc_shrunk_clients;
          Alcotest.test_case "repack policy" `Quick test_alloc_repack_policy;
          Alcotest.test_case "repack exhaustion" `Quick test_alloc_repack_exhaustion;
          Alcotest.test_case "cost halving picks cheap victim" `Quick
            test_alloc_cost_halving_picks_cheap_victim;
          Alcotest.test_case "cost halving fallback" `Quick
            test_alloc_cost_halving_fallback;
          Alcotest.test_case "random sequences stay disjoint" `Quick
            test_alloc_random_sequences;
          QCheck_alcotest.to_alcotest prop_alloc_invariants;
          Alcotest.test_case "matches the reference allocator" `Quick
            test_alloc_matches_reference;
          Alcotest.test_case "printer and clients pinned" `Quick test_alloc_printer_pinned;
        ] );
      ( "binary",
        [
          Alcotest.test_case "compile suite" `Quick test_binary_compile_suite;
          Alcotest.test_case "iteration cycles" `Quick test_binary_iteration_cycles;
        ] );
      ( "workload",
        [
          Alcotest.test_case "thread model accessors" `Quick test_thread_model_accessors;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "need fraction" `Quick test_workload_need_fraction;
          Alcotest.test_case "invalid need" `Quick test_workload_invalid_need;
        ] );
      ( "os-sim",
        [
          Alcotest.test_case "single thread times" `Quick test_os_single_thread_times;
          Alcotest.test_case "single mode serializes" `Quick test_os_single_mode_serializes;
          Alcotest.test_case "multi mode overlaps" `Quick test_os_multi_mode_overlaps;
          Alcotest.test_case "shrink on contention" `Quick test_os_shrink_on_contention;
          Alcotest.test_case "total ops mode-independent" `Quick
            test_os_total_ops_mode_independent;
          Alcotest.test_case "all threads finish" `Quick test_os_all_threads_finish;
          Alcotest.test_case "utilization bounds" `Quick test_os_utilization_bounds;
          Alcotest.test_case "multithreading wins under load" `Quick
            test_os_multithreading_wins_under_load;
          Alcotest.test_case "deterministic" `Quick test_os_deterministic;
          Alcotest.test_case "exact stall accounting" `Quick test_os_multi_exact_stalls;
          Alcotest.test_case "unknown kernel" `Quick test_os_unknown_kernel;
          Alcotest.test_case "reconfig cost slows" `Quick test_os_reconfig_cost_slows;
          Alcotest.test_case "reconfig zero default" `Quick
            test_os_reconfig_cost_zero_is_default;
          Alcotest.test_case "repack policy runs" `Quick test_os_repack_policy_runs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rejects out-of-order submit" `Quick
            test_engine_rejects_out_of_order_submit;
          Alcotest.test_case "rejects non-finite reconfig cost" `Quick
            test_engine_rejects_non_finite_cost;
          Alcotest.test_case "rejects non-finite arrival" `Quick
            test_engine_rejects_non_finite_arrival;
          Alcotest.test_case "drain on empty engine" `Quick test_engine_drain_empty;
          Alcotest.test_case "run_until inclusive at event time" `Quick
            test_engine_run_until_inclusive;
          Alcotest.test_case "rejects duplicate ids in any order" `Quick
            test_engine_rejects_duplicate_ids;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "ipc" `Quick test_metrics_ipc;
          Alcotest.test_case "IPC = N*U identity" `Quick test_metrics_identity;
          Alcotest.test_case "aggregate" `Quick test_metrics_aggregate;
        ] );
      ( "page-schedule",
        [
          Alcotest.test_case "of_mapping" `Quick test_page_schedule_of_mapping;
          Alcotest.test_case "relocated base" `Quick test_page_schedule_relocated_base;
          Alcotest.test_case "pp" `Quick test_page_schedule_pp;
        ] );
    ]
