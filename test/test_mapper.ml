open Cgra_arch
open Cgra_dfg
open Cgra_mapper

let arch_4x4_p4 () = Option.get (Cgra.standard ~size:4 ~page_pes:4)

let arch_4x4_p2 () = Option.get (Cgra.standard ~size:4 ~page_pes:2)

let arch_6x6_p8 () = Option.get (Cgra.standard ~size:6 ~page_pes:8)

let map_ok kind arch g =
  match Scheduler.map kind arch g with
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping failed: %s" e

let assert_valid ?check_mem m =
  match Mapping.validate ?check_mem m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid mapping: %s" (String.concat "; " es)

(* ---------- whole-suite mapping ---------- *)

let test_suite_maps_and_validates kind arch_fn () =
  let arch = arch_fn () in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok kind arch k.graph in
      assert_valid m;
      Alcotest.(check bool) (k.name ^ " ii >= mii") true
        (m.ii >= Scheduler.mii kind arch k.graph))
    Cgra_kernels.Kernels.all

let test_paged_uses_prefix_pages () =
  let arch = arch_4x4_p4 () in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok Paged arch k.graph in
      let used = Mapping.pages_used m in
      List.iteri
        (fun i pg -> Alcotest.(check int) (k.name ^ " prefix") i pg)
        used)
    Cgra_kernels.Kernels.all

let test_paged_packs_fewer_pages () =
  (* small kernels should leave fabric unused under the paged compiler *)
  let arch = arch_6x6_p8 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Paged arch k.graph in
  Alcotest.(check bool) "mpeg fits in one 8-PE page" true
    (Mapping.n_pages_used m <= 2)

let test_mapping_deterministic () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let a = map_ok Paged arch k.graph in
  let b = map_ok Paged arch k.graph in
  Alcotest.(check int) "same ii" a.ii b.ii;
  Alcotest.(check bool) "same placements" true (a.placements = b.placements)

let test_race_matches_sequential () =
  (* the speculative (II, attempt) race must be bit-identical to the
     sequential ladder at any pool width — same mapping on success, same
     Error text on failure.  (The pool clamps to the machine's cores, so
     on a single-core host this runs the race on one domain, which
     starts nothing past the winner; on multi-core hosts it races across
     domains.)  Each call starts with no shared search, so the
     unconstrained ladder is raced too. *)
  let arch = arch_4x4_p4 () in
  Cgra_util.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun (kind, tag) ->
              Scheduler.clear_shared ();
              let seq = map_ok kind arch k.graph in
              Scheduler.clear_shared ();
              match Scheduler.map ~pool kind arch k.graph with
              | Error e -> Alcotest.failf "raced %s %s failed: %s" k.name tag e
              | Ok raced ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s: raced = sequential" k.name tag)
                    true
                    ((seq.Mapping.ii, seq.placements, seq.routes, seq.paged)
                    = (raced.Mapping.ii, raced.placements, raced.routes,
                       raced.paged)))
            [ (Scheduler.Unconstrained, "base"); (Scheduler.Paged, "paged") ])
        Cgra_kernels.Kernels.all;
      (* infeasible case: identical Error text, produced only after every
         candidate up to max_ii is exhausted *)
      let k = Cgra_kernels.Kernels.find_exn "sobel" in
      match
        ( Scheduler.map ~max_ii:1 Paged arch k.graph,
          Scheduler.map ~max_ii:1 ~pool Paged arch k.graph )
      with
      | Error a, Error b -> Alcotest.(check string) "same error text" a b
      | _ -> Alcotest.fail "expected Error from both ladders")

let test_seed_changes_search () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let a = map_ok Paged arch k.graph in
  match Scheduler.map ~seed:99 Paged arch k.graph with
  | Ok b -> Alcotest.(check bool) "both valid" true (a.ii >= 1 && b.ii >= 1)
  | Error e -> Alcotest.failf "seed 99 failed: %s" e

let test_mii_lower_bounds () =
  let arch = arch_4x4_p4 () in
  let sor = Cgra_kernels.Kernels.find_exn "sor" in
  Alcotest.(check int) "sor MII = RecMII = 3" 3 (Scheduler.mii Unconstrained arch sor.graph);
  let sobel = Cgra_kernels.Kernels.find_exn "sobel" in
  Alcotest.(check bool) "sobel MII >= 2 (resources)" true
    (Scheduler.mii Unconstrained arch sobel.graph >= 2)

let test_consts_not_placed () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained arch k.graph in
  Array.iteri
    (fun v pl ->
      match ((Graph.node m.graph v).op, pl) with
      | Op.Const _, Some _ -> Alcotest.fail "const placed"
      | Op.Const _, None -> ()
      | _, None -> Alcotest.fail "op unplaced"
      | _, Some _ -> ())
    m.placements

let test_unmappable_reports_error () =
  (* a graph needing more simultaneous memory ports than the fabric has at
     II=max cannot fit on a 1-wide window; use tiny max_ii to force error *)
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let arch = arch_4x4_p4 () in
  match Scheduler.map ~max_ii:1 Paged arch k.graph with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure at max_ii 1"

(* ---------- validator negative cases ---------- *)

let tiny_graph () =
  (* load -> abs -> store, plus a second const-fed store for variety *)
  Graph.create ~name:"tiny"
    ~ops:
      [
        Op.Load { array = "a"; offset = 0; stride = 1 };
        Op.Abs;
        Op.Store { array = "b"; offset = 0; stride = 1 };
      ]
    ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0) ]

let place ~row ~col ~time = Some { Mapping.pe = Coord.make ~row ~col; time }

let manual_mapping ?(paged = false) ?(routes = []) ~ii placements =
  {
    Mapping.arch = arch_4x4_p4 ();
    graph = tiny_graph ();
    ii;
    placements = Array.of_list placements;
    routes;
    paged;
  }

let expect_invalid_with fragment m =
  match Mapping.validate m with
  | Ok () -> Alcotest.failf "expected invalid (%s)" fragment
  | Error es ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s in: %s" fragment (String.concat "; " es))
        true
        (List.exists (fun e -> contains e fragment) es)

let test_validate_ok_manual () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  assert_valid m

let test_validate_slot_conflict () =
  let m =
    manual_mapping ~ii:1
      [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:0 ~time:1; place ~row:0 ~col:1 ~time:2 ]
  in
  (* nodes 0 and 1 share PE (0,0) with ii=1: same modulo slot *)
  expect_invalid_with "slot conflict" m

let test_validate_unreachable () =
  let m =
    manual_mapping ~ii:4
      [ place ~row:0 ~col:0 ~time:0; place ~row:3 ~col:3 ~time:1; place ~row:3 ~col:2 ~time:2 ]
  in
  expect_invalid_with "cannot read" m

let test_validate_time_order () =
  let m =
    manual_mapping ~ii:4
      [ place ~row:0 ~col:0 ~time:2; place ~row:0 ~col:1 ~time:2; place ~row:1 ~col:1 ~time:3 ]
  in
  expect_invalid_with "before value ready" m

let test_validate_unplaced () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:0; None; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "unplaced" m

let test_validate_negative_time () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:(-1); place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "negative" m

let test_validate_ring_violation () =
  (* paged: node 1 in page 0 consuming from node 0 in page 1 goes backwards *)
  let m =
    manual_mapping ~paged:true ~ii:4
      [ place ~row:0 ~col:2 ~time:0; place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "cannot read" m

let test_validate_mem_ports () =
  (* three loads on one row at the same modulo slot exceed 2 ports/row *)
  let g =
    Graph.create ~name:"loads"
      ~ops:
        [
          Op.Load { array = "a"; offset = 0; stride = 1 };
          Op.Load { array = "a"; offset = 1; stride = 1 };
          Op.Load { array = "a"; offset = 2; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 3, 0, 0) ]
  in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 1;
      placements =
        Array.of_list
          [
            place ~row:0 ~col:0 ~time:0;
            place ~row:0 ~col:1 ~time:0;
            place ~row:0 ~col:2 ~time:0;
            place ~row:1 ~col:0 ~time:1;
          ];
      routes = [];
      paged = false;
    }
  in
  expect_invalid_with "memory ports" m;
  match Mapping.validate ~check_mem:false m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check_mem:false should pass: %s" (String.concat ";" es)

let test_validate_rf_capacity () =
  (* a value read rf_capacity+1 IIs later needs too many rotating regs *)
  let arch =
    Cgra.make ~rf_capacity:2
      (Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2)
  in
  let m =
    {
      (manual_mapping ~ii:1
         [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:1 ~time:4; place ~row:1 ~col:1 ~time:5 ])
      with
      arch;
    }
  in
  expect_invalid_with "registers" m

let test_validate_memdep_violation () =
  (* store a[i] feeds load a[i-2] two iterations later (true dependence,
     distance 2).  Scheduling the store far after the load breaks the
     sequential memory order even though no data edge connects them. *)
  let g =
    Graph.create ~name:"st-ld"
      ~ops:
        [
          Op.Load { array = "x"; offset = 0; stride = 1 };
          Op.Store { array = "a"; offset = 0; stride = 1 };
          Op.Load { array = "a"; offset = -2; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0); (2, 3, 0, 0) ]
  in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 1;
      (* load of a[] at time 0; store to a[] at time 10: the load of
         iteration i (cycle i) reads before the store of iteration i-2
         (cycle i+8) wrote the cell *)
      placements =
        Array.of_list
          [
            place ~row:0 ~col:0 ~time:9;
            place ~row:0 ~col:1 ~time:10;
            place ~row:2 ~col:0 ~time:0;
            place ~row:2 ~col:1 ~time:1;
          ];
      routes = [];
      paged = false;
    }
  in
  expect_invalid_with "memory ordering" m

(* ---------- routes ---------- *)

let test_route_through_pe () =
  (* producer at (0,0), consumer at (0,3): needs hops *)
  let g =
    Graph.create ~name:"far"
      ~ops:
        [
          Op.Load { array = "a"; offset = 0; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0) ]
  in
  let hop t r c = { Mapping.pe = Coord.make ~row:r ~col:c; time = t } in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 4;
      placements = Array.of_list [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:3 ~time:3 ];
      routes = [ { Mapping.edge = { src = 0; dst = 1; operand = 0; distance = 0 }; hops = [ hop 1 0 1; hop 2 0 2 ] } ];
      paged = false;
    }
  in
  assert_valid m;
  (* dropping the route must fail *)
  expect_invalid_with "cannot read" { m with routes = [] }

(* The eight (size, page PEs) fabrics of Fig. 8. *)
let grid_fabrics = [ (4, 2); (4, 4); (6, 2); (6, 4); (6, 8); (8, 2); (8, 4); (8, 8) ]

(* A router over [arch] at [ii] whose taken slots are [busy pe slot]. *)
let router_on ?(busy = fun _ _ -> false) arch ~ii =
  let fabric = Router.fabric arch in
  let n = Array.length fabric.coords in
  let occupied =
    Bytes.init (n * ii) (fun k ->
        if busy fabric.coords.(k / ii) (k mod ii) then '\001' else '\000')
  in
  Router.create fabric ~ii ~occupied ~overlay:(Array.make (n * ii) 0) ()

let pe_at arch ~row ~col = Grid.index arch.Cgra.grid (Coord.make ~row ~col)

let test_router_finds_path () =
  let arch = arch_4x4_p4 () in
  let read_adjacent a b = Coord.equal a b || Coord.adjacent a b in
  match
    Router.find (router_on arch ~ii:4) ~gen:1 Mesh ~src:(pe_at arch ~row:0 ~col:0)
      ~src_time:0 ~dst:(pe_at arch ~row:3 ~col:3) ~deadline:8 ~max_hops:8
  with
  | Some hops ->
      Alcotest.(check bool) "needs >= 4 hops" true (List.length hops >= 4);
      (* chain is contiguous in space and increasing in time *)
      let rec check prev = function
        | [] -> ()
        | (h : Mapping.placement) :: rest ->
            Alcotest.(check bool) "adjacent" true
              (read_adjacent prev.Mapping.pe h.pe);
            Alcotest.(check bool) "later" true (h.time > prev.Mapping.time);
            check h rest
      in
      check { Mapping.pe = Coord.make ~row:0 ~col:0; time = 0 } hops
  | None -> Alcotest.fail "no route"

let test_router_direct_case () =
  let arch = arch_4x4_p4 () in
  match
    Router.find (router_on arch ~ii:2) ~gen:1 Mesh ~src:(pe_at arch ~row:0 ~col:0)
      ~src_time:0 ~dst:(pe_at arch ~row:0 ~col:1) ~deadline:5 ~max_hops:4
  with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "expected no hops"
  | None -> Alcotest.fail "expected direct"

let test_router_respects_deadline () =
  let arch = arch_4x4_p4 () in
  match
    Router.find (router_on arch ~ii:8) ~gen:1 Mesh ~src:(pe_at arch ~row:0 ~col:0)
      ~src_time:0 ~dst:(pe_at arch ~row:3 ~col:3) ~deadline:2 ~max_hops:8
  with
  | None -> ()
  | Some _ -> Alcotest.fail "deadline too tight for 4 hops"

let test_router_respects_occupancy () =
  (* wall of busy slots in column 1 except one cell forces the path
     through that cell *)
  let arch = arch_4x4_p4 () in
  let busy (pe : Coord.t) _ = pe.col = 1 && pe.row <> 2 in
  match
    Router.find (router_on ~busy arch ~ii:8) ~gen:1 Mesh
      ~src:(pe_at arch ~row:0 ~col:0) ~src_time:0 ~dst:(pe_at arch ~row:0 ~col:3)
      ~deadline:20 ~max_hops:10
  with
  | Some hops ->
      Alcotest.(check bool) "path uses the gap" true
        (List.exists
           (fun (h : Mapping.placement) -> h.pe.Coord.col = 1 && h.pe.Coord.row = 2)
           hops
        || List.for_all (fun (h : Mapping.placement) -> h.pe.Coord.col <> 1) hops)
  | None -> Alcotest.fail "router should find a detour"

(* The closure-driven router the int-indexed one replaced, verbatim: the
   reference the corpus below compares against.  Its queue is the
   pairing heap it was written against ([Pairing_heap], the copy of the
   old [Cgra_util.Pqueue]). *)
module Reference_router = struct
  let earliest_free ~ii ~free pe ~lower ~deadline =
    (* Scanning one full II window suffices: slots repeat modulo ii. *)
    let rec go t =
      if t > deadline || t >= lower + ii then None
      else if free pe t then Some t
      else go (t + 1)
    in
    go lower

  let find ~grid ~ii ~free ~allowed ~read_adjacent ?goal_adjacent ?neighbors
      ?hop_cost ~(src : Mapping.placement) ~dst_pe ~deadline ~max_hops () =
    (* Infeasibility prechecks: each hop is one mesh move and one cycle,
       and the final hop must sit on or next to [dst_pe], so a chain needs
       at least [max 1 (manhattan - 1)] hops and as many cycles before the
       [deadline] read.  The scheduler probes many (PE, time) candidates
       whose edges cannot route; rejecting those without expanding the
       best-first frontier is cheaper than the exhausted search. *)
    let d =
      abs (src.Mapping.pe.Coord.row - dst_pe.Coord.row)
      + abs (src.Mapping.pe.Coord.col - dst_pe.Coord.col)
    in
    let need = max 1 (d - 1) in
    let goal_adjacent = Option.value ~default:read_adjacent goal_adjacent in
    let neighbors =
      match neighbors with
      | Some f -> f
      | None -> fun pe -> Grid.neighbors grid pe @ [ pe ]
    in
    if goal_adjacent src.Mapping.pe dst_pe && deadline >= src.Mapping.time + 1 then
      Some []
    else if
      need > max_hops
      || deadline < src.Mapping.time + need + 1
      ||
      (* The final hop must be an [allowed], goal-adjacent PE with a free
         slot late enough to be reached (one cycle per unit of distance
         from [src], at least one hop) and early enough to be read by
         [deadline]. *)
      not
        (List.exists
           (fun pe ->
             allowed pe
             && goal_adjacent pe dst_pe
             &&
             let dist_src =
               abs (src.Mapping.pe.Coord.row - pe.Coord.row)
               + abs (src.Mapping.pe.Coord.col - pe.Coord.col)
             in
             let lower = src.Mapping.time + max 1 dist_src in
             earliest_free ~ii ~free pe ~lower ~deadline:(deadline - 1) <> None)
           (neighbors dst_pe))
    then None
    else begin
      (* Best-first over (hops, accumulated hop cost, arrival time);
         parents recorded for path reconstruction.  The visited map is
         three dense per-PE arrays — the scheduler calls this in its
         innermost loop, so constant factors matter.  Without [hop_cost]
         every cost is 0 and the search degenerates to the original
         (hops, time) order, expansion for expansion. *)
      let hop_cost = match hop_cost with Some f -> f | None -> fun _ _ -> 0 in
      let module Pq = Pairing_heap in
      let n = Grid.pe_count grid in
      (* pe index -> (hops, cost, time) already expanded with *)
      let best_h = Array.make n max_int in
      let best_c = Array.make n max_int in
      let best_t = Array.make n max_int in
      let cmp (h1, c1, t1) (h2, c2, t2) =
        let c = Int.compare h1 h2 in
        if c <> 0 then c
        else
          let c = Int.compare c1 c2 in
          if c <> 0 then c else Int.compare t1 t2
      in
      let q = ref (Pq.empty ~cmp) in
      let push hops cost time pe path =
        match earliest_free ~ii ~free pe ~lower:time ~deadline:(deadline - 1) with
        | None -> ()
        | Some t ->
            let cost = cost + hop_cost pe t in
            let key = Grid.index grid pe in
            let better =
              hops < best_h.(key)
              || hops = best_h.(key)
                 && (cost < best_c.(key)
                    || (cost = best_c.(key) && t < best_t.(key)))
            in
            if better then begin
              best_h.(key) <- hops;
              best_c.(key) <- cost;
              best_t.(key) <- t;
              q := Pq.push !q (hops, cost, t) (pe, { Mapping.pe; time = t } :: path)
            end
      in
      List.iter
        (fun pe ->
          if allowed pe && read_adjacent src.Mapping.pe pe then
            push 1 0 (src.Mapping.time + 1) pe [])
        (neighbors src.Mapping.pe);
      let rec search () =
        match Pq.pop !q with
        | None -> None
        | Some (((hops, cost, t), (pe, path)), rest) ->
            q := rest;
            if goal_adjacent pe dst_pe && deadline >= t + 1 then Some (List.rev path)
            else if hops >= max_hops then search ()
            else begin
              List.iter
                (fun pe' ->
                  if allowed pe' && read_adjacent pe pe' then
                    push (hops + 1) cost (t + 1) pe' path)
                (neighbors pe);
              search ()
            end
      in
      search ()
    end
end

(* The reference router's arguments for one search, built the way the
   scheduler built them: a free-slot closure over the occupancy and the
   overlay, the precomputed neighbour table, the port-strand hop cost,
   and for paged edges the page-window [allowed] and [step] relations. *)
let reference_find arch ~ii ~occupied ~overlay ~gen ~strand ~paged ~src ~src_time
    ~dst ~deadline ~max_hops =
  let grid = arch.Cgra.grid in
  let pages = arch.Cgra.pages in
  let is_band = not (Page.is_rect pages) in
  let page_of pe = Option.value ~default:(-1) (Page.page_of_pe pages pe) in
  let free pe time =
    let k = (Grid.index grid pe * ii) + (time mod ii) in
    Bytes.get occupied k = '\000' && overlay.(k) <> gen
  in
  let nbrs_self =
    Array.of_list
      (List.map (fun pe -> Grid.neighbors grid pe @ [ pe ]) (Grid.all_pes grid))
  in
  let neighbors pe = nbrs_self.(Grid.index grid pe) in
  let hop_cost =
    Option.map
      (fun (s : Router.strand) (pe : Coord.t) time ->
        let k = (pe.row * ii) + (time mod ii) in
        let slack = s.budget - s.mem_use.(k) in
        if slack > 0 && grid.Grid.cols - s.row_occ.(k) <= slack then 1 else 0)
      strand
  in
  let read_adjacent ~same_page a b =
    Coord.equal a b
    || Coord.adjacent a b
       &&
       if same_page && paged && is_band then
         abs (Grid.serp_index grid a - Grid.serp_index grid b) = 1
       else true
  in
  let cross_adjacent a b =
    Coord.adjacent a b
    && ((not is_band) || abs (Grid.serp_index grid a - Grid.serp_index grid b) = 1)
  in
  let src = { Mapping.pe = src; time = src_time } in
  if not paged then
    Reference_router.find ~grid ~ii ~free ~allowed:(fun _ -> true)
      ~read_adjacent:(read_adjacent ~same_page:false)
      ~neighbors ?hop_cost ~src ~dst_pe:dst ~deadline ~max_hops ()
  else
    let pu = page_of src.pe and pv = page_of dst in
    let allowed pe =
      let p = page_of pe in
      p >= pu && p <= pv
    in
    let step a b =
      let pa = page_of a and pb = page_of b in
      if pa < 0 || pb < 0 then false
      else if pb = pa then read_adjacent ~same_page:true a b
      else if pb = pa + 1 then cross_adjacent a b
      else false
    in
    Reference_router.find ~grid ~ii ~free ~allowed ~read_adjacent:step ~neighbors
      ?hop_cost ~src ~dst_pe:dst ~deadline ~max_hops ()

let test_router_corpus () =
  (* 2,048 seeded searches on every Fig. 8 fabric (4x4, 6x6 and 8x8 with
     2-, 4- and 8-PE pages, 6x6's band pages included): random II,
     occupancy, overlay, endpoints, deadline and hop bound, under both
     relations, with and without the strand price.  Each fabric reuses
     one scratch per (II, price) across its cases.  The int-indexed
     router must return the reference's hop list, or None, every time. *)
  let rng = Cgra_util.Rng.create ~seed:2011 in
  let direct = ref 0 and chains = ref 0 and none = ref 0 and cases = ref 0 in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      let fabric = Router.fabric arch in
      let n = Array.length fabric.coords in
      let rows = arch.Cgra.grid.Grid.rows and cols = arch.Cgra.grid.Grid.cols in
      let paged_pes =
        List.filter (fun i -> fabric.page.(i) >= 0) (List.init n Fun.id)
        |> Array.of_list
      in
      List.iter
        (fun ii ->
          let occupied = Bytes.make (n * ii) '\000' in
          let overlay = Array.make (n * ii) 0 in
          let strand =
            {
              Router.mem_use = Array.make (rows * ii) 0;
              row_occ = Array.make (rows * ii) 0;
              budget = arch.Cgra.mem_ports_per_row;
            }
          in
          let plain = Router.create fabric ~ii ~occupied ~overlay () in
          let priced = Router.create fabric ~ii ~occupied ~overlay ~strand () in
          for case = 1 to 32 do
            incr cases;
            let density = Cgra_util.Rng.int rng 70 in
            let gen = 1 + Cgra_util.Rng.int rng 3 in
            for k = 0 to (n * ii) - 1 do
              Bytes.set occupied k
                (if Cgra_util.Rng.int rng 100 < density then '\001' else '\000');
              overlay.(k) <- (if Cgra_util.Rng.int rng 8 = 0 then gen else 0)
            done;
            for k = 0 to (rows * ii) - 1 do
              strand.mem_use.(k) <-
                Cgra_util.Rng.int rng (arch.Cgra.mem_ports_per_row + 1);
              strand.row_occ.(k) <- Cgra_util.Rng.int rng (cols + 1)
            done;
            let paged = case mod 2 = 0 in
            let src, dst =
              if not paged then (Cgra_util.Rng.int rng n, Cgra_util.Rng.int rng n)
              else
                (* the scheduler routes a paged edge only forward *)
                let a = Cgra_util.Rng.choose rng paged_pes in
                let b = Cgra_util.Rng.choose rng paged_pes in
                if fabric.page.(a) <= fabric.page.(b) then (a, b) else (b, a)
            in
            let src_time = Cgra_util.Rng.int rng 12 in
            let deadline = src_time + Cgra_util.Rng.int rng 16 in
            let max_hops =
              if paged then 2 * (fabric.page.(dst) - fabric.page.(src) + 4)
                            - Cgra_util.Rng.int rng 4
              else 2 + Cgra_util.Rng.int rng 8
            in
            let with_strand = Cgra_util.Rng.bool rng in
            let reach : Router.reach =
              if paged then
                Pages { first = fabric.page.(src); last = fabric.page.(dst) }
              else Mesh
            in
            let got =
              Router.find (if with_strand then priced else plain) ~gen reach ~src
                ~src_time ~dst ~deadline ~max_hops
            in
            let want =
              reference_find arch ~ii ~occupied ~overlay ~gen
                ~strand:(if with_strand then Some strand else None)
                ~paged ~src:fabric.coords.(src) ~src_time ~dst:fabric.coords.(dst)
                ~deadline ~max_hops
            in
            (match want with
            | Some [] -> incr direct
            | Some _ -> incr chains
            | None -> incr none);
            if got <> want then
              Alcotest.failf
                "%dx%d p%d ii=%d case %d (%s%s): src %d@%d dst %d deadline %d \
                 max_hops %d differs from the reference"
                size size page_pes ii case
                (if paged then "paged" else "unconstrained")
                (if with_strand then ", priced" else "")
                src src_time dst deadline max_hops
          done)
        [ 1; 2; 3; 4; 5; 7; 9; 12 ])
    grid_fabrics;
  (* the corpus must exercise every outcome, searches above all *)
  Alcotest.(check bool)
    (Printf.sprintf "%d cases: %d direct, %d chains, %d none" !cases !direct !chains
       !none)
    true
    (!cases = 2_048 && !direct >= 100 && !chains >= 300 && !none >= 300)

(* ---------- reachability tables ---------- *)

(* The read relation on PE indices, derived from coordinates and pages
   the way [reference_find] derives it: under paging, the same PE, or a
   mesh neighbour on the same page or the next one, path-consecutive on
   band pages. *)
let reference_reads arch ~paged =
  let grid = arch.Cgra.grid in
  let pages = arch.Cgra.pages in
  let is_band = not (Page.is_rect pages) in
  let coords = Array.of_list (Grid.all_pes grid) in
  let page_of pe = Option.value ~default:(-1) (Page.page_of_pe pages pe) in
  fun a b ->
    let ca = coords.(a) and cb = coords.(b) in
    if not paged then Coord.equal ca cb || Coord.adjacent ca cb
    else
      let pa = page_of ca and pb = page_of cb in
      pa >= 0 && pb >= 0
      && (Coord.equal ca cb
         || (pb = pa || pb = pa + 1)
            && Coord.adjacent ca cb
            && ((not is_band)
               || abs (Grid.serp_index grid ca - Grid.serp_index grid cb) = 1))

(* Brute-force tables over the time-expanded fabric: which (PE, time)
   slots can hold the value, stepping time one cycle at a time.  A hop
   takes a slot free in [occupied] at a time after the value reached a PE
   it reads; the consumer reads at any later time. *)
let brute_earliest_reads ~n ~ii ~reads ~is_open ~src ~src_time =
  let into = Array.make n max_int in
  let held = Array.make n false in
  held.(src) <- true;
  let reachable b =
    let r = ref false in
    for a = 0 to n - 1 do
      if held.(a) && reads a b then r := true
    done;
    !r
  in
  (* a chain through every PE, each hop waiting a full II, ends by then *)
  for time = src_time + 1 to src_time + (n * ii) + 1 do
    let readers = List.filter reachable (List.init n Fun.id) in
    List.iter (fun b -> if into.(b) = max_int then into.(b) <- time) readers;
    List.iter (fun b -> if is_open b time then held.(b) <- true) readers
  done;
  into

let brute_latest_departures ~n ~reads ~is_open ~dst ~deadline =
  let into = Array.make n (-1) in
  (* [later.(b)]: a hop at [b] issued after the current time delivers *)
  let later = Array.make n false in
  let delivers a =
    let r = ref (reads a dst) in
    for b = 0 to n - 1 do
      if later.(b) && reads a b then r := true
    done;
    !r
  in
  for time = deadline - 1 downto 0 do
    let ok = List.filter delivers (List.init n Fun.id) in
    List.iter (fun a -> if into.(a) < 0 then into.(a) <- time) ok;
    if time >= 1 then List.iter (fun a -> if is_open a time then later.(a) <- true) ok
  done;
  into

let test_reach_tables_sound () =
  (* 1,024 seeded edges on every Fig. 8 fabric under both relations, with
     random II, occupancy, overlay, endpoints, deadline, hop bound and
     strand price.  Whenever [find] routes an edge (a chain or a direct
     read), the forward table admits the consumer by the deadline and the
     backward table admits the producer at its time.  The two tables
     always agree, and they reject a good share of the edges, some of
     them edges that [find] only refutes with a best-first search. *)
  let rng = Cgra_util.Rng.create ~seed:2021 in
  let routed = ref 0 and rejected = ref 0 and searched = ref 0 and cases = ref 0 in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      let fabric = Router.fabric arch in
      let n = Array.length fabric.coords in
      let rows = arch.Cgra.grid.Grid.rows and cols = arch.Cgra.grid.Grid.cols in
      let paged_pes =
        List.filter (fun i -> fabric.page.(i) >= 0) (List.init n Fun.id)
        |> Array.of_list
      in
      let fwd = Array.make n 0 and bwd = Array.make n 0 in
      List.iter
        (fun ii ->
          let occupied = Bytes.make (n * ii) '\000' in
          let overlay = Array.make (n * ii) 0 in
          let strand =
            {
              Router.mem_use = Array.make (rows * ii) 0;
              row_occ = Array.make (rows * ii) 0;
              budget = arch.Cgra.mem_ports_per_row;
            }
          in
          let plain = Router.create fabric ~ii ~occupied ~overlay () in
          let priced = Router.create fabric ~ii ~occupied ~overlay ~strand () in
          for case = 1 to 16 do
            incr cases;
            let density = Cgra_util.Rng.int rng 80 in
            let gen = 1 + Cgra_util.Rng.int rng 3 in
            for k = 0 to (n * ii) - 1 do
              Bytes.set occupied k
                (if Cgra_util.Rng.int rng 100 < density then '\001' else '\000');
              overlay.(k) <- (if Cgra_util.Rng.int rng 8 = 0 then gen else 0)
            done;
            for k = 0 to (rows * ii) - 1 do
              strand.mem_use.(k) <-
                Cgra_util.Rng.int rng (arch.Cgra.mem_ports_per_row + 1);
              strand.row_occ.(k) <- Cgra_util.Rng.int rng (cols + 1)
            done;
            let paged = case mod 2 = 0 in
            let src, dst =
              if not paged then (Cgra_util.Rng.int rng n, Cgra_util.Rng.int rng n)
              else
                let a = Cgra_util.Rng.choose rng paged_pes in
                let b = Cgra_util.Rng.choose rng paged_pes in
                if fabric.page.(a) <= fabric.page.(b) then (a, b) else (b, a)
            in
            let src_time = Cgra_util.Rng.int rng 12 in
            let deadline = src_time + Cgra_util.Rng.int rng 16 in
            let max_hops =
              if paged then
                2 * (fabric.page.(dst) - fabric.page.(src) + 4) - Cgra_util.Rng.int rng 4
              else 2 + Cgra_util.Rng.int rng 8
            in
            let router = if Cgra_util.Rng.bool rng then priced else plain in
            let reach : Router.reach =
              if paged then
                Pages { first = fabric.page.(src); last = fabric.page.(dst) }
              else Mesh
            in
            Router.earliest_reads router ~paged ~src ~src_time fwd;
            Router.latest_departures router ~paged ~dst ~deadline bwd;
            let admits = fwd.(dst) <= deadline in
            let tag =
              Printf.sprintf "%dx%d p%d ii=%d case %d: src %d@%d dst %d deadline %d"
                size size page_pes ii case src src_time dst deadline
            in
            if admits <> (bwd.(src) >= src_time) then
              Alcotest.failf "%s: forward %d and backward %d tables disagree" tag
                fwd.(dst) bwd.(src);
            let searches = Router.searches router in
            (match
               Router.find router ~gen reach ~src ~src_time ~dst ~deadline ~max_hops
             with
            | None -> ()
            | Some _ ->
                incr routed;
                if not admits then Alcotest.failf "%s: routed but rejected" tag);
            if not admits then begin
              incr rejected;
              if Router.searches router > searches then incr searched
            end
          done)
        [ 1; 2; 3; 4; 5; 7; 9; 12 ])
    grid_fabrics;
  Alcotest.(check bool)
    (Printf.sprintf "%d cases: %d routed, %d rejected (%d past the prechecks)"
       !cases !routed !rejected !searched)
    true
    (!cases = 1_024 && !routed >= 300 && !rejected >= 300 && !searched >= 100)

let test_reach_tables_exact () =
  (* On 4x4/p2, 4x4/p4 and 6x6/p8 at II 1 to 3, under both relations,
     every entry of both tables equals the brute-force one, for every
     PE. *)
  let rng = Cgra_util.Rng.create ~seed:2022 in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      let fabric = Router.fabric arch in
      let n = Array.length fabric.coords in
      let got = Array.make n 0 in
      List.iter
        (fun ii ->
          let occupied = Bytes.make (n * ii) '\000' in
          let router =
            Router.create fabric ~ii ~occupied ~overlay:(Array.make (n * ii) 0) ()
          in
          let is_open pe time = Bytes.get occupied ((pe * ii) + (time mod ii)) = '\000' in
          for case = 1 to 24 do
            let density = Cgra_util.Rng.int rng 80 in
            for k = 0 to (n * ii) - 1 do
              Bytes.set occupied k
                (if Cgra_util.Rng.int rng 100 < density then '\001' else '\000')
            done;
            let paged = case mod 2 = 0 in
            let reads = reference_reads arch ~paged in
            let pe = Cgra_util.Rng.int rng n and time = Cgra_util.Rng.int rng 12 in
            let check what want =
              if got <> want then
                Alcotest.failf "%dx%d p%d ii=%d case %d (%s): %s from PE %d at %d"
                  size size page_pes ii case
                  (if paged then "paged" else "unconstrained")
                  what pe time
            in
            Router.earliest_reads router ~paged ~src:pe ~src_time:time got;
            check "earliest reads"
              (brute_earliest_reads ~n ~ii ~reads ~is_open ~src:pe ~src_time:time);
            Router.latest_departures router ~paged ~dst:pe ~deadline:time got;
            check "latest departures"
              (brute_latest_departures ~n ~reads ~is_open ~dst:pe ~deadline:time)
          done)
        [ 1; 2; 3 ])
    [ (4, 2); (4, 4); (6, 8) ]

(* ---------- bandwidth-aware scheduling ---------- *)

let test_bus_aware_ii_monotone () =
  (* The bus-aware ladder replays the complete legacy attempt family
     byte-identically after its own family, so for every (kernel,
     fabric, seed) cell of the Fig. 8 grid the achieved paged II can
     only improve.  264 cells: 11 kernels x 8 fabric/page combos x 3
     seeds, each compiled both ways. *)
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun seed ->
              let tag =
                Printf.sprintf "%s %dx%d p%d seed %d" k.name size size page_pes
                  seed
              in
              let compile ~bus_aware =
                match Scheduler.map ~seed ~bus_aware Paged arch k.graph with
                | Ok m -> m
                | Error e -> Alcotest.failf "%s (bus_aware=%b) failed: %s" tag bus_aware e
              in
              let legacy = compile ~bus_aware:false in
              let bus = compile ~bus_aware:true in
              assert_valid bus;
              if bus.ii > legacy.ii then
                Alcotest.failf "%s: bus-aware II %d worse than legacy II %d" tag
                  bus.ii legacy.ii)
            [ 0; 1; 2 ])
        Cgra_kernels.Kernels.all)
    grid_fabrics

(* The [sched.race.<name>] counter of a traced call; [None] when the call
   ran no search. *)
let race_counter trace name =
  List.find_map
    (fun (e : Cgra_trace.Trace.event) ->
      match e.payload with
      | Counter { name = n; value } when n = "sched.race." ^ name ->
          Some (int_of_float value)
      | _ -> None)
    (Cgra_trace.Trace.events trace)

let compilers = [ (Scheduler.Unconstrained, "base"); (Scheduler.Paged, "paged") ]

let test_bus_aware_race_identical () =
  (* byte-identical results from both compilers at -j 1/2/4 with the
     bus-aware family in the raced ladder (the lowest-index-winner
     contract must survive the doubled per-II attempt space); every call
     starts with no shared search, so each width races the unconstrained
     ladder as well.  The pools are not clamped, so -j 4 runs four
     domains even on a smaller host.  A raced call starts no attempt
     above its winning II level (80 attempts per level from the MII up).
     It runs the sequential call's polish attempts at -j 1, and none at
     any width when the race's winner already uses one page.  (How many
     polish attempts past the first single-page one start at -j 2 or 4
     depends on how many finish while it runs, so no tighter bound holds
     on a loaded host.) *)
  let traced ?pool kind arch g =
    Scheduler.clear_shared ();
    let trace = Cgra_trace.Trace.make () in
    let r = Scheduler.map ?pool ~trace kind arch g in
    let counter name = Option.get (race_counter trace name) in
    (r, counter "launched", counter "polish")
  in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          let seqs =
            List.map
              (fun (kind, tag) ->
                match traced kind arch k.graph with
                | Ok m, _, polish -> (kind, tag, m, polish)
                | Error e, _, _ -> Alcotest.failf "%s %s failed: %s" k.name tag e)
              compilers
          in
          List.iter
            (fun j ->
              Cgra_util.Pool.with_pool ~clamp:false ~domains:j (fun pool ->
                  List.iter
                    (fun (kind, tag, (seq : Mapping.t), seq_polish) ->
                      let config =
                        Printf.sprintf "%s %s %dx%d p%d -j %d" k.name tag size size
                          page_pes j
                      in
                      match traced ~pool kind arch k.graph with
                      | Error e, _, _ -> Alcotest.failf "%s failed: %s" config e
                      | Ok raced, launched, polish ->
                          Alcotest.(check bool)
                            (config ^ " = sequential")
                            true
                            ((seq.ii, seq.placements, seq.routes)
                            = (raced.Mapping.ii, raced.placements, raced.routes));
                          let levels = raced.ii - Scheduler.mii kind arch k.graph + 1 in
                          Alcotest.(check bool)
                            (Printf.sprintf "%s: %d launched within %d levels" config
                               launched levels)
                            true
                            (launched <= 80 * levels);
                          Alcotest.(check bool)
                            (Printf.sprintf "%s: %d polish, %d sequential" config polish
                               seq_polish)
                            true
                            ((j > 1 || polish = seq_polish)
                            && (seq_polish > 0 || polish = 0)))
                    seqs))
            [ 1; 2; 4 ])
        Cgra_kernels.Kernels.all)
    grid_fabrics

(* ---------- pinned scheduler output ---------- *)

(* One line of a pinned digest: the call's config, its launched and
   polish race counters and the codec bytes of its mapping, so a change
   to any decision of any attempt — the mapping itself or how far up the
   (II, attempt) ladder it was found — changes the line.  The call starts
   with no shared search, so it searches and its counters exist. *)
let digest_line b ~seed ~config kind arch g =
  Scheduler.clear_shared ();
  let trace = Cgra_trace.Trace.make () in
  match Scheduler.map ~seed ~trace kind arch g with
  | Error e -> Alcotest.failf "%s: %s" config e
  | Ok m ->
      let counter name = Option.get (race_counter trace name) in
      Printf.bprintf b "%s|%d|%d|%s\n" config (counter "launched") (counter "polish")
        (Cgra_isa.Codec.mapping_bytes m)

(* One digest per seed over every call of the Fig. 8 grid: 8 fabric/page
   pairs x 11 kernels x both compilers.  Constant-cost rewrites of the
   scheduler must leave both digests as they are. *)
let fig8_grid_digest seed =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun (kind, tag) ->
              let config =
                Printf.sprintf "%s %dx%d p%d %s" k.name size size page_pes tag
              in
              digest_line b ~seed ~config kind arch k.graph)
            compilers)
        Cgra_kernels.Kernels.all)
    grid_fabrics;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_fig8_grid seed expected () =
  Alcotest.(check string)
    (Printf.sprintf "Fig. 8 grid digest at seed %d" seed)
    expected (fig8_grid_digest seed)

(* The same digest over 40 generated kernels — 8 to 15 operations, every
   third one with a recurrence — on 4x4/p2, 6x6/p8 (band pages) and
   8x8/p4, both compilers, at seed 0: kernels shaped unlike the bundled
   suite.  Every call must map. *)
let test_pinned_synthetic () =
  let b = Buffer.create (1 lsl 15) in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      for i = 0 to 39 do
        let cfg =
          {
            Cgra_kernels.Synthetic.n_ops = 8 + (i mod 8);
            mem_fraction = 0.3;
            recurrence = i mod 3 = 0;
          }
        in
        let g = Cgra_kernels.Synthetic.generate ~seed:i cfg in
        List.iter
          (fun (kind, tag) ->
            let config =
              Printf.sprintf "synthetic-%d %dx%d p%d %s" i size size page_pes tag
            in
            digest_line b ~seed:0 ~config kind arch g)
          compilers
      done)
    [ (4, 2); (6, 8); (8, 4) ];
  Alcotest.(check string) "synthetic digest at seed 0" "90aa6a1014ac0b5893d5ba415c6417c3"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- shared unconstrained searches ---------- *)

(* What a call returned, as bytes: the mapping, and the arch it carries,
   or the [Error] text. *)
let outcome = function
  | Ok (m : Mapping.t) ->
      Ok (Cgra_isa.Codec.mapping_bytes m, Cgra.fingerprint m.arch)
  | Error e -> Error e

(* [map] with a fresh trace: the result and whether the call shared a
   stored search instead of searching. *)
let traced_map ?seed ?pool kind arch g =
  let trace = Cgra_trace.Trace.make () in
  let r = Scheduler.map ?seed ?pool ~trace kind arch g in
  let shared =
    List.exists
      (fun (e : Cgra_trace.Trace.event) ->
        match e.payload with
        | Mark { name = "sched.race.shared"; _ } -> true
        | _ -> false)
      (Cgra_trace.Trace.events trace)
  in
  (r, shared)

(* The unconstrained result of a call that finds nothing stored. *)
let fresh ?seed arch g =
  Scheduler.clear_shared ();
  outcome (Scheduler.map ?seed Unconstrained arch g)

let check_fresh what ?seed arch g r =
  Alcotest.(check bool) (what ^ " = a fresh search") true (outcome r = fresh ?seed arch g)

(* The Fig. 8 grid in grid order, as a cold compile walks it: each
   fabric's baseline is searched at its first page size and shared by
   the other 55 unconstrained calls of each seed, at pool width 1 or 2
   alike, and every result is the one a fresh search gives. *)
let test_shared_grid () =
  List.iter
    (fun (seed, width) ->
      Cgra_util.Pool.with_pool ~domains:width (fun pool ->
          Scheduler.clear_shared ();
          let calls =
            List.concat_map
              (fun (size, page_pes) ->
                let arch = Option.get (Cgra.standard ~size ~page_pes) in
                List.concat_map
                  (fun (k : Cgra_kernels.Kernels.t) ->
                    List.map
                      (fun (kind, tag) ->
                        let r, shared = traced_map ~seed ~pool kind arch k.graph in
                        let config =
                          Printf.sprintf "%s %dx%d p%d %s seed %d -j %d" k.name size
                            size page_pes tag seed width
                        in
                        (config, kind, arch, k.graph, r, shared))
                      compilers)
                  Cgra_kernels.Kernels.all)
              grid_fabrics
          in
          Alcotest.(check int)
            (Printf.sprintf "shared calls at seed %d, -j %d" seed width)
            55
            (List.length (List.filter (fun (_, _, _, _, _, shared) -> shared) calls));
          List.iter
            (fun (config, kind, arch, g, r, shared) ->
              if kind = Scheduler.Paged then
                Alcotest.(check bool) (config ^ " searched") false shared
              else check_fresh config ~seed arch g r)
            calls))
    [ (0, 1); (1, 1); (0, 2) ]

let pages_4x4_p4 () = (arch_4x4_p4 ()).Cgra.pages

(* A smaller register file refuses the stored II 2 winner of yuv2rgb,
   so the call searches, and finds II 3. *)
let test_shared_revalidated () =
  let g = (Cgra_kernels.Kernels.find_exn "yuv2rgb").graph in
  let small = Cgra.make ~rf_capacity:2 (pages_4x4_p4 ()) in
  Scheduler.clear_shared ();
  let wide = map_ok Unconstrained (arch_4x4_p4 ()) g in
  Alcotest.(check int) "II on the standard fabric" 2 wide.ii;
  let r, shared = traced_map Unconstrained small g in
  Alcotest.(check bool) "the refused winner is not shared" false shared;
  Alcotest.(check int) "II with 2 registers" 3 (Result.get_ok r).ii;
  check_fresh "yuv2rgb with 2 registers" small g r

(* With 3 registers, [Mapping.validate] refuses an attempt of mpeg's
   search at seed 0, so that search is not stored: the standard fabric's
   register file would have accepted the refused attempt. *)
let test_shared_skips_refusals () =
  let g = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let small = Cgra.make ~rf_capacity:3 (pages_4x4_p4 ()) in
  let standard = arch_4x4_p4 () in
  Alcotest.(check bool) "the two fabrics map mpeg differently" false
    (fresh small g = fresh standard g);
  Scheduler.clear_shared ();
  ignore (map_ok Unconstrained small g);
  let r, shared = traced_map Unconstrained standard g in
  Alcotest.(check bool) "nothing shared" false shared;
  check_fresh "mpeg on the standard fabric" standard g r

(* One memory port per row instead of two: a different search for every
   kernel. *)
let test_shared_keys_ports () =
  let two = arch_4x4_p4 () in
  let one = Cgra.make ~mem_ports_per_row:1 (pages_4x4_p4 ()) in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      Alcotest.(check bool) (k.name ^ " maps differently with 1 port") false
        (fresh two k.graph = fresh one k.graph);
      Scheduler.clear_shared ();
      ignore (map_ok Unconstrained two k.graph);
      let r, shared = traced_map Unconstrained one k.graph in
      Alcotest.(check bool) (k.name ^ " not shared across ports") false shared;
      check_fresh (k.name ^ " with 1 port") one k.graph r)
    Cgra_kernels.Kernels.all

(* [Binary.clear_cache] keeps a cold compile cold: afterwards the next
   unconstrained call launches attempts again. *)
let test_shared_cleared_by_binary () =
  let g = (Cgra_kernels.Kernels.find_exn "sobel").graph in
  let arch = arch_4x4_p4 () in
  Scheduler.clear_shared ();
  ignore (map_ok Unconstrained (arch_4x4_p2 ()) g);
  let _, shared = traced_map Unconstrained arch g in
  Alcotest.(check bool) "shared before the clear" true shared;
  Cgra_core.Binary.clear_cache ();
  let trace = Cgra_trace.Trace.make () in
  ignore (Scheduler.map ~trace Unconstrained arch g);
  Alcotest.(check bool) "attempts launched after the clear" true
    (match race_counter trace "launched" with Some n -> n > 0 | None -> false)

(* ---------- properties over synthetic kernels ---------- *)

let prop_synthetic_maps_validate kind name =
  QCheck.Test.make ~name ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = 8 + (seed mod 10);
          mem_fraction = 0.3;
          recurrence = seed mod 3 = 0;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map kind (arch_4x4_p4 ()) g with
      | Ok m -> Mapping.validate m = Ok ()
      | Error _ -> false)

let test_steps_cover_edges () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "laplace" in
  let m = map_ok Paged arch k.graph in
  let non_const_edges =
    List.filter
      (fun (e : Graph.edge) ->
        match (Graph.node m.graph e.src).op with Op.Const _ -> false | _ -> true)
      (Graph.edges m.graph)
  in
  Alcotest.(check bool) "at least one step per non-const edge" true
    (List.length (Mapping.steps m) >= List.length non_const_edges)

let test_mapping_stats () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained arch k.graph in
  Alcotest.(check bool) "utilization in (0,1]" true
    (Mapping.utilization m > 0.0 && Mapping.utilization m <= 1.0);
  Alcotest.(check bool) "schedule length >= ii" true (Mapping.schedule_length m >= m.ii);
  Alcotest.(check bool) "pages used non-empty" true (Mapping.n_pages_used m >= 1)

let () =
  Alcotest.run "mapper"
    [
      ( "suite",
        [
          Alcotest.test_case "baseline maps 4x4p4" `Quick
            (test_suite_maps_and_validates Scheduler.Unconstrained arch_4x4_p4);
          Alcotest.test_case "paged maps 4x4p4" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_4x4_p4);
          Alcotest.test_case "paged maps 4x4p2" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_4x4_p2);
          Alcotest.test_case "paged maps 6x6p8 (band)" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_6x6_p8);
          Alcotest.test_case "paged prefix pages" `Quick test_paged_uses_prefix_pages;
          Alcotest.test_case "paged packs pages" `Quick test_paged_packs_fewer_pages;
          Alcotest.test_case "deterministic" `Quick test_mapping_deterministic;
          Alcotest.test_case "raced = sequential" `Quick
            test_race_matches_sequential;
          Alcotest.test_case "seed variation" `Quick test_seed_changes_search;
          Alcotest.test_case "mii bounds" `Quick test_mii_lower_bounds;
          Alcotest.test_case "consts not placed" `Quick test_consts_not_placed;
          Alcotest.test_case "unmappable errors" `Quick test_unmappable_reports_error;
          Alcotest.test_case "steps cover edges" `Quick test_steps_cover_edges;
          Alcotest.test_case "stats" `Quick test_mapping_stats;
        ] );
      ( "validate",
        [
          Alcotest.test_case "manual ok" `Quick test_validate_ok_manual;
          Alcotest.test_case "slot conflict" `Quick test_validate_slot_conflict;
          Alcotest.test_case "unreachable" `Quick test_validate_unreachable;
          Alcotest.test_case "time order" `Quick test_validate_time_order;
          Alcotest.test_case "unplaced node" `Quick test_validate_unplaced;
          Alcotest.test_case "negative time" `Quick test_validate_negative_time;
          Alcotest.test_case "ring violation" `Quick test_validate_ring_violation;
          Alcotest.test_case "memory ports" `Quick test_validate_mem_ports;
          Alcotest.test_case "rf capacity" `Quick test_validate_rf_capacity;
          Alcotest.test_case "memdep ordering" `Quick test_validate_memdep_violation;
        ] );
      ( "router",
        [
          Alcotest.test_case "route through PEs" `Quick test_route_through_pe;
          Alcotest.test_case "finds path" `Quick test_router_finds_path;
          Alcotest.test_case "direct case" `Quick test_router_direct_case;
          Alcotest.test_case "deadline" `Quick test_router_respects_deadline;
          Alcotest.test_case "occupancy detour" `Quick test_router_respects_occupancy;
          Alcotest.test_case "corpus matches the reference search" `Quick
            test_router_corpus;
          Alcotest.test_case "reachability tables admit every route" `Quick
            test_reach_tables_sound;
          Alcotest.test_case "reachability tables match brute force" `Quick
            test_reach_tables_exact;
        ] );
      ( "bus-aware",
        [
          Alcotest.test_case "II monotone over the Fig. 8 grid" `Slow
            test_bus_aware_ii_monotone;
          Alcotest.test_case "raced = sequential at -j 1/2/4" `Slow
            test_bus_aware_race_identical;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "Fig. 8 grid output at seed 0" `Slow
            (test_pinned_fig8_grid 0 "5be48a1c2b89b6b0461d34ef7159f56c");
          Alcotest.test_case "Fig. 8 grid output at seed 1" `Slow
            (test_pinned_fig8_grid 1 "c09b6b6074508320dc8e7a665d1f24e2");
          Alcotest.test_case "synthetic kernels at seed 0" `Slow test_pinned_synthetic;
        ] );
      ( "shared",
        [
          Alcotest.test_case "Fig. 8 grid shares 55 baselines per seed" `Slow
            test_shared_grid;
          Alcotest.test_case "refused winner searched again" `Quick
            test_shared_revalidated;
          Alcotest.test_case "searches with a refusal not stored" `Quick
            test_shared_skips_refusals;
          Alcotest.test_case "memory ports in the key" `Quick test_shared_keys_ports;
          Alcotest.test_case "Binary.clear_cache forgets" `Quick
            test_shared_cleared_by_binary;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_synthetic_maps_validate Scheduler.Unconstrained
               "synthetic kernels map (baseline) and validate");
          QCheck_alcotest.to_alcotest
            (prop_synthetic_maps_validate Scheduler.Paged
               "synthetic kernels map (paged) and validate");
        ] );
    ]
