open Cgra_arch
open Cgra_mapper
open Cgra_core

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let paged_mapping ?(size = 4) ?(page_pes = 4) name =
  let k = Cgra_kernels.Kernels.find_exn name in
  match Scheduler.map Paged (arch size page_pes) k.graph with
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping %s failed: %s" name e

let fold_ok ?base_page ~target_pages m =
  match Transform.fold ?base_page ~target_pages m with
  | Ok sh -> sh
  | Error e -> Alcotest.failf "fold failed: %s" e

let assert_valid ?(check_mem = false) m =
  match Mapping.validate ~check_mem m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

(* ---------- ii_q formula ---------- *)

let test_ii_q () =
  Alcotest.(check int) "no shrink" 3 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:4);
  Alcotest.(check int) "halve" 6 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:2);
  Alcotest.(check int) "to one" 12 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:1);
  Alcotest.(check int) "non-divisor ceil" 6 (Transform.ii_q ~ii_p:3 ~n_used:3 ~target_pages:2);
  Alcotest.(check int) "target beyond use" 3 (Transform.ii_q ~ii_p:3 ~n_used:2 ~target_pages:8)

(* ---------- fold mechanics ---------- *)

let test_fold_errors () =
  let m = paged_mapping "mpeg" in
  (match Transform.fold ~target_pages:0 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "target 0 accepted");
  (match Transform.fold ~base_page:3 ~target_pages:4 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-fabric range accepted");
  let base = { m with Mapping.paged = false } in
  match Transform.fold ~target_pages:1 base with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpaged source accepted"

let test_fold_identity_when_target_covers () =
  let m = paged_mapping "laplace" in
  let n = Mapping.n_pages_used m in
  let sh = fold_ok ~target_pages:n m in
  Alcotest.(check int) "s = 1" 1 sh.s;
  Alcotest.(check int) "same ii" m.ii sh.mapping.ii;
  Alcotest.(check bool) "pe exact" true sh.pe_exact;
  assert_valid sh.mapping

let test_fold_ii_matches_formula () =
  List.iter
    (fun name ->
      let m = paged_mapping name in
      let n = Mapping.n_pages_used m in
      for target = 1 to n do
        let sh = fold_ok ~target_pages:target m in
        Alcotest.(check int)
          (Printf.sprintf "%s to %d pages" name target)
          (Transform.ii_q ~ii_p:m.ii ~n_used:n ~target_pages:target)
          sh.mapping.ii
      done)
    Cgra_kernels.Kernels.names

let test_fold_whole_ladder_validates () =
  List.iter
    (fun name ->
      let m = paged_mapping name in
      let rec ladder target =
        if target >= 1 then begin
          let sh = fold_ok ~target_pages:target m in
          if sh.pe_exact then assert_valid sh.mapping;
          ladder (target / 2)
        end
      in
      ladder (Mapping.n_pages_used m))
    Cgra_kernels.Kernels.names

let test_fold_square_tiles_always_exact () =
  (* 2x2 pages admit the full dihedral group: every shrink is PE-exact *)
  List.iter
    (fun name ->
      let m = paged_mapping ~size:4 ~page_pes:4 name in
      for target = 1 to Mapping.n_pages_used m do
        let sh = fold_ok ~target_pages:target m in
        Alcotest.(check bool)
          (Printf.sprintf "%s target %d exact" name target)
          true sh.pe_exact
      done)
    Cgra_kernels.Kernels.names

let test_fold_to_one_page_always_exact () =
  (* Fig. 6 semantics: folding onto a single page never needs rotations *)
  List.iter
    (fun (size, page_pes) ->
      List.iter
        (fun name ->
          let m = paged_mapping ~size ~page_pes name in
          let sh = fold_ok ~target_pages:1 m in
          Alcotest.(check bool) (name ^ " m1 exact") true sh.pe_exact;
          assert_valid sh.mapping)
        Cgra_kernels.Kernels.names)
    [ (4, 2); (4, 4); (6, 8); (8, 4) ]

let test_fold_stays_in_target_range () =
  let m = paged_mapping "swim" in
  let sh = fold_ok ~base_page:1 ~target_pages:2 m in
  let pages = m.Mapping.arch.Cgra.pages in
  Array.iter
    (fun pl ->
      match pl with
      | Some (p : Mapping.placement) ->
          let pg = Option.get (Page.page_of_pe pages p.pe) in
          Alcotest.(check bool) "in [1,3)" true (pg >= 1 && pg < 3)
      | None -> ())
    sh.mapping.Mapping.placements

let test_fold_base_page_relocation_valid () =
  let m = paged_mapping "mpeg" in
  let sh = fold_ok ~base_page:2 ~target_pages:2 m in
  if sh.pe_exact then assert_valid sh.mapping

let test_fold_from_relocated_base () =
  (* regression: fold indexed its per-page arrays with absolute page ids,
     so folding a mapping whose used pages start above page 0 read out of
     range.  Relocate to every feasible base, re-mark paged, and fold
     again all the way down. *)
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = paged_mapping "mpeg" in
  let n = Mapping.n_pages_used m in
  let total = Page.n_pages m.Mapping.arch.Cgra.pages in
  Alcotest.(check bool) "kernel leaves room to relocate" true (total > n);
  for base = 1 to total - n do
    let sh = fold_ok ~base_page:base ~target_pages:n m in
    Alcotest.(check bool) "relocation exact on square tiles" true sh.pe_exact;
    let src = { sh.mapping with Mapping.paged = true } in
    assert_valid src;
    Alcotest.(check int) "lowest used page" base (List.hd (Mapping.pages_used src));
    let sh1 = fold_ok ~target_pages:1 src in
    Alcotest.(check int)
      (Printf.sprintf "ii law from base %d" base)
      (Transform.ii_q ~ii_p:src.Mapping.ii ~n_used:n ~target_pages:1)
      sh1.mapping.ii;
    Alcotest.(check bool) "refold exact" true sh1.pe_exact;
    assert_valid sh1.mapping;
    let mem = Cgra_kernels.Kernels.init_memory k in
    match Cgra_sim.Check.against_oracle sh1.mapping mem ~iterations:24 with
    | Ok () -> ()
    | Error es -> Alcotest.failf "base %d diverges: %s" base (String.concat "; " es)
  done

let test_fold_no_slot_collisions () =
  (* validate already checks this, but assert directly for page-level
     results too *)
  List.iter
    (fun name ->
      let m = paged_mapping ~page_pes:2 name in
      let n = Mapping.n_pages_used m in
      for target = 1 to n do
        let sh = fold_ok ~target_pages:target m in
        let q = sh.mapping in
        let seen = Hashtbl.create 64 in
        let add (p : Mapping.placement) =
          let key = (Grid.index q.Mapping.arch.Cgra.grid p.pe, p.time mod q.ii) in
          Alcotest.(check bool)
            (Printf.sprintf "%s t%d no collision" name target)
            false (Hashtbl.mem seen key);
          Hashtbl.add seen key ()
        in
        Array.iter (Option.iter add) q.placements;
        List.iter (fun (r : Mapping.route) -> List.iter add r.hops) q.routes
      done)
    [ "sobel"; "swim"; "yuv2rgb" ]

let test_fold_factor () =
  let m = paged_mapping "swim" in
  let n = Mapping.n_pages_used m in
  for target = 1 to n + 2 do
    let sh = fold_ok ~target_pages:target m in
    Alcotest.(check int) "s = ceil(n/m_eff)"
      ((n + sh.m_eff - 1) / sh.m_eff)
      sh.s;
    Alcotest.(check int) "m_eff = min target n" (min target n) sh.m_eff
  done

let test_orientations_length () =
  let m = paged_mapping "laplace" in
  let sh = fold_ok ~target_pages:2 m in
  Alcotest.(check int) "one orientation per used page" sh.n_used
    (Array.length sh.orientations)

(* ---------- mirror ---------- *)

(* Where [pe] lands when its page is mirrored by symmetry [o] (an index
   into the layout's [orients]) and moved onto [dst_page]'s tile. *)
let relocate pages ~dst_page o pe =
  let tb = Page.tables pages in
  tb.coord.(Page.move tb ~orient:o ~dst_page (Grid.index pages.Page.grid pe))

(* Cross steps as the PE-index pairs [Mirror.solve] takes. *)
let step_indices pages =
  let index = Grid.index pages.Page.grid in
  List.map (fun (a, b) -> (index a, index b))

let test_mirror_relocate_identity () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  Alcotest.(check bool) "symmetry 0 is the identity" true
    (Orient.equal Orient.identity (Page.tables pages).orients.(0));
  List.iter
    (fun pe ->
      let pe' = relocate pages ~dst_page:0 0 pe in
      Alcotest.(check bool) "fixed point" true (Coord.equal pe pe'))
    (Page.pes_of_page pages 0)

let test_mirror_relocate_moves_tile () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  List.iter
    (fun pe ->
      let pe' = relocate pages ~dst_page:2 0 pe in
      Alcotest.(check (option int)) "lands in page 2" (Some 2) (Page.page_of_pe pages pe'))
    (Page.pes_of_page pages 0)

let test_mirror_relocate_rejects_foreign () =
  (* a step from page 0 whose producer sits in another page *)
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let foreign = (Coord.make ~row:3 ~col:3, List.hd (Page.pes_of_page pages 1)) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Mirror.solve (Page.tables pages) ~src_base:0 ~n_used:2 ~s:2 ~base:0
            ~cross_steps:[| step_indices pages [ foreign ] |]);
       false
     with Invalid_argument _ -> true)

let test_mirror_solve_no_steps () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  match
    Mirror.solve (Page.tables pages) ~src_base:0 ~n_used:3 ~s:3 ~base:0
      ~cross_steps:[| []; []; [] |]
  with
  | Some o -> Alcotest.(check int) "length" 3 (Array.length o)
  | None -> Alcotest.fail "unconstrained solve must succeed"

let test_mirror_solve_fig6_fold () =
  (* Fig. 6: fold three ring pages onto one tile.  The 0-1 boundary is
     horizontal adjacency, the 1-2 boundary vertical (serpentine turn);
     mirroring must make every transferred value land within RF reach. *)
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let steps01 = Page.boundary_pairs pages 0 in
  let steps12 = Page.boundary_pairs pages 1 in
  Alcotest.(check bool) "boundaries exist" true (steps01 <> [] && steps12 <> []);
  match
    Mirror.solve (Page.tables pages) ~src_base:0 ~n_used:3 ~s:3 ~base:0
      ~cross_steps:[| step_indices pages steps01; step_indices pages steps12 |]
  with
  | Some o ->
      let reloc n pe = relocate pages ~dst_page:0 o.(n) pe in
      List.iter
        (fun (a, b) ->
          let a' = reloc 0 a and b' = reloc 1 b in
          Alcotest.(check bool) "0-1 within RF reach" true
            (Coord.equal a' b' || Coord.adjacent a' b'))
        steps01;
      List.iter
        (fun (a, b) ->
          let a' = reloc 1 a and b' = reloc 2 b in
          Alcotest.(check bool) "1-2 within RF reach" true
            (Coord.equal a' b' || Coord.adjacent a' b'))
        steps12
  | None -> Alcotest.fail "Fig. 6 fold must solve"

let test_mirror_band_reversal () =
  let pages = Page.band (Grid.square 6) ~size:8 in
  (* junction pair between band pages 0 and 1 *)
  let junction =
    List.filter
      (fun (a, b) ->
        abs (Grid.serp_index (Grid.square 6) a - Grid.serp_index (Grid.square 6) b) = 1)
      (Page.boundary_pairs pages 0)
  in
  Alcotest.(check bool) "junction exists" true (junction <> []);
  match
    Mirror.solve (Page.tables pages) ~src_base:0 ~n_used:2 ~s:2 ~base:0
      ~cross_steps:[| step_indices pages junction |]
  with
  | Some o ->
      List.iter
        (fun (a, b) ->
          let a' = relocate pages ~dst_page:0 o.(0) a in
          let b' = relocate pages ~dst_page:0 o.(1) b in
          Alcotest.(check bool) "reach" true (Coord.equal a' b' || Coord.adjacent a' b'))
        junction
  | None -> Alcotest.fail "band fold must solve via reversal"

(* ---------- differential oracle: the coordinate-based fold ---------- *)

(* The fold as it was before the int tables: every relocation through
   the option-returning coordinate functions, every orientation pair
   relocated afresh.  Kept verbatim (its band-page [vlocal]/[vglobal]
   included) as the oracle the table-driven {!Transform.fold} is
   checked against. *)
module Reference = struct
  let vlocal (t : Page.t) n (c : Coord.t) =
    match t.shape with
    | Rect _ -> Page.local_of t n c
    | Band { size } ->
        if Page.page_of_pe t c = Some n then
          Some (Coord.make ~row:0 ~col:(Grid.serp_index t.grid c - (n * size)))
        else None

  let vglobal (t : Page.t) n (local : Coord.t) =
    match t.shape with
    | Rect _ -> Page.global_of t n local
    | Band { size } ->
        if local.row = 0 && local.col >= 0 && local.col < size && n >= 0
           && n < Page.n_pages t
        then Some (Grid.serpentine t.grid).((n * size) + local.col)
        else None

  let relocate ~pages ~src_page ~dst_page o pe =
    let tile_rows, tile_cols = Page.vdims pages in
    match vlocal pages src_page pe with
    | None ->
        invalid_arg
          (Printf.sprintf "Mirror.relocate: %s not in page %d" (Coord.to_string pe)
             src_page)
    | Some local -> (
        let local' = Orient.apply o ~tile_rows ~tile_cols local in
        match vglobal pages dst_page local' with
        | Some pe' -> pe'
        | None -> assert false (* symmetries preserve the tile *))

  let solve ~pages ~src_base ~n_used ~s ~base ~cross_steps =
    let candidates = Orient.all ~square:(Page.is_square_tile pages) in
    let dst n = base + (n / s) in
    (* [n] is relative to the source mapping's lowest used page
       [src_base]; [cross_steps] is indexed the same way. *)
    (* A pair (o_n, o_next) satisfies the steps crossing page n -> n+1 when
       every transferred value stays within register-file reach. *)
    let pair_ok n o_n o_next =
      List.for_all
        (fun (a, b) ->
          let a' = relocate ~pages ~src_page:(src_base + n) ~dst_page:(dst n) o_n a in
          let b' =
            relocate ~pages ~src_page:(src_base + n + 1) ~dst_page:(dst (n + 1)) o_next b
          in
          Coord.equal a' b' || Coord.adjacent a' b')
        cross_steps.(n)
    in
    if n_used <= 0 then Some [||]
    else begin
      (* DP over the page path: feasible orientations of page n, with a
         witness predecessor for path reconstruction. *)
      let feasible = Array.make n_used [] in
      feasible.(0) <- List.map (fun o -> (o, None)) candidates;
      for n = 1 to n_used - 1 do
        feasible.(n) <-
          List.filter_map
            (fun o ->
              let pred =
                List.find_opt (fun (o_prev, _) -> pair_ok (n - 1) o_prev o) feasible.(n - 1)
              in
              Option.map (fun (o_prev, _) -> (o, Some o_prev)) pred)
            candidates
      done;
      match feasible.(n_used - 1) with
      | [] -> None
      | (last, _) :: _ ->
          let result = Array.make n_used Orient.identity in
          result.(n_used - 1) <- last;
          (* walk back through witnesses *)
          let rec back n o =
            if n = 0 then ()
            else
              let o_prev =
                match List.find_opt (fun (o', _) -> Orient.equal o' o) feasible.(n) with
                | Some (_, Some p) -> p
                | Some (_, None) | None -> assert false
              in
              result.(n - 1) <- o_prev;
              back (n - 1) o_prev
          in
          back (n_used - 1) last;
          Some result
    end

  let cdiv a b = (a + b - 1) / b

  let fold ?(base_page = 0) ~target_pages (src : Mapping.t) : (Transform.shrunk, string) result =
    let pages = src.arch.Cgra.pages in
    let page_of pe =
      match Page.page_of_pe pages pe with
      | Some p -> p
      | None -> invalid_arg "Transform.fold: occupant outside any page"
    in
    if not src.paged then Error "Transform.fold: source mapping is not paged"
    else if target_pages < 1 then Error "Transform.fold: target_pages < 1"
    else begin
      let used = Mapping.pages_used src in
      let n_used = List.length used in
      if n_used = 0 then Error "Transform.fold: empty mapping"
      else begin
        let src_base = List.hd used in
        let contiguous =
          List.for_all2 (fun pg i -> pg = src_base + i) used (List.init n_used Fun.id)
        in
        if not contiguous then
          Error "Transform.fold: source pages are not a contiguous ring run"
        else begin
          let rel pg = pg - src_base in
          let m_eff = min target_pages n_used in
          let s = cdiv n_used m_eff in
          if base_page < 0 || base_page + m_eff > Page.n_pages pages then
            Error
              (Printf.sprintf "Transform.fold: pages [%d, %d) exceed the fabric" base_page
                 (base_page + m_eff))
          else begin
            let cross_steps = Array.make (max 1 (n_used - 1)) [] in
            List.iter
              (fun ((a : Mapping.placement), (b : Mapping.placement)) ->
                let pa = rel (page_of a.pe) and pb = rel (page_of b.pe) in
                if pb = pa + 1 then cross_steps.(pa) <- (a.pe, b.pe) :: cross_steps.(pa))
              (Mapping.steps src);
            let orientations, pe_exact =
              match solve ~pages ~src_base ~n_used ~s ~base:base_page ~cross_steps with
              | Some o -> (o, true)
              | None -> (Array.make n_used Orient.identity, false)
            in
            let move (p : Mapping.placement) =
              let n = rel (page_of p.pe) in
              let pe =
                relocate ~pages ~src_page:(src_base + n)
                  ~dst_page:(base_page + (n / s)) orientations.(n) p.pe
              in
              { Mapping.pe; time = (p.time * s) + (n mod s) }
            in
            let mapping =
              {
                src with
                Mapping.ii = src.ii * s;
                placements = Array.map (Option.map move) src.placements;
                routes =
                  List.map
                    (fun (r : Mapping.route) -> { r with hops = List.map move r.hops })
                    src.routes;
                paged = false;
              }
            in
            Ok { mapping; source = src; n_used; m_eff; s; base_page; orientations; pe_exact }
          end
        end
      end
    end
end

(* Every paged mapping of the Fig. 8 grid at seeds 0 and 1, folded to
   every target page count at every base page, by both folds: the same
   verdict (a range past the fabric's end is an error for both) and, when
   both succeed, the same orientations, exactness, fold factor and page
   count, and the same mapping byte for byte. *)
let test_fold_matches_reference () =
  let folds = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun size ->
          List.iter
            (fun page_pes ->
              match Cgra.standard ~size ~page_pes with
              | None -> ()
              | Some a ->
                  let n_pages = Cgra.n_pages a in
                  List.iter
                    (fun (k : Cgra_kernels.Kernels.t) ->
                      let m =
                        match Scheduler.map ~seed Paged a k.graph with
                        | Ok m -> m
                        | Error e -> Alcotest.failf "map %s: %s" k.name e
                      in
                      for target = 1 to n_pages do
                        for base = 0 to n_pages - 1 do
                          incr folds;
                          let what =
                            Printf.sprintf "%s %dx%d/p%d seed %d, %d pages at %d" k.name
                              size size page_pes seed target base
                          in
                          match
                            ( Transform.fold ~base_page:base ~target_pages:target m,
                              Reference.fold ~base_page:base ~target_pages:target m )
                          with
                          | Ok got, Ok want ->
                              if
                                not
                                  (Array.for_all2 Orient.equal got.orientations
                                     want.orientations
                                  && got.pe_exact = want.pe_exact && got.s = want.s
                                  && got.m_eff = want.m_eff
                                  && Cgra_isa.Codec.mapping_bytes got.mapping
                                     = Cgra_isa.Codec.mapping_bytes want.mapping)
                              then Alcotest.failf "%s: folds differ" what
                          | Error _, Error _ -> ()
                          | Ok _, Error e -> Alcotest.failf "%s: only the reference fails: %s" what e
                          | Error e, Ok _ -> Alcotest.failf "%s: only the new fold fails: %s" what e
                        done
                      done)
                    Cgra_kernels.Kernels.all)
            Experiments.page_sizes)
        Experiments.cgra_sizes)
    [ 0; 1 ];
  Alcotest.(check int) "folds compared" 40_590 !folds

(* [Mapping.pages_used] and [n_pages_used] as they were before they
   marked a bool per page, copied verbatim: every occupant listed, then
   their pages collected in an [Int] set. *)
module Reference_pages = struct
  open Mapping

  let all_occupants t =
    let ops =
      Array.to_list t.placements
      |> List.mapi (fun v p -> Option.map (fun p -> (`Op v, p)) p)
      |> List.filter_map Fun.id
    in
    let hops =
      List.concat_map (fun r -> List.map (fun h -> (`Hop r.edge, h)) r.hops) t.routes
    in
    ops @ hops

  let pages_used t =
    let module S = Set.Make (Int) in
    List.fold_left
      (fun acc (_, p) ->
        match Page.page_of_pe t.arch.Cgra.pages p.pe with
        | Some pg -> S.add pg acc
        | None -> acc)
      S.empty (all_occupants t)
    |> S.elements

  let n_pages_used t = List.length (pages_used t)
end

(* Both mappings of every (fabric, kernel) pair of the Fig. 8 grid at
   seeds 0 and 1, and every fold of each paged one to every target page
   count at every base page: the page list and count the reference gives. *)
let test_pages_used_matches_reference () =
  let mappings = ref 0 in
  let check what (m : Mapping.t) =
    incr mappings;
    if Mapping.pages_used m <> Reference_pages.pages_used m then
      Alcotest.failf "%s: pages used differ" what;
    if Mapping.n_pages_used m <> Reference_pages.n_pages_used m then
      Alcotest.failf "%s: page counts differ" what
  in
  List.iter
    (fun seed ->
      List.iter
        (fun size ->
          List.iter
            (fun page_pes ->
              match Cgra.standard ~size ~page_pes with
              | None -> ()
              | Some a ->
                  let n_pages = Cgra.n_pages a in
                  List.iter
                    (fun (k : Cgra_kernels.Kernels.t) ->
                      let b =
                        match Binary.compile ~seed a k with
                        | Ok b -> b
                        | Error e -> Alcotest.failf "compile %s: %s" k.name e
                      in
                      let what = Printf.sprintf "%s %dx%d/p%d seed %d" k.name size size page_pes seed in
                      check (what ^ " base") b.base;
                      check (what ^ " paged") b.paged;
                      for target = 1 to n_pages do
                        for base = 0 to n_pages - 1 do
                          match Transform.fold ~base_page:base ~target_pages:target b.paged with
                          | Ok sh ->
                              check (Printf.sprintf "%s, %d pages at %d" what target base) sh.mapping
                          | Error _ -> ()
                        done
                      done)
                    Cgra_kernels.Kernels.all)
            Experiments.page_sizes)
        Experiments.cgra_sizes)
    [ 0; 1 ];
  Alcotest.(check bool) (Printf.sprintf "%d mappings compared" !mappings) true (!mappings > 176 * 2)

(* ---------- total on hostile mappings ---------- *)

(* A band fabric leaves PEs outside every page (6x6 with 8-PE pages: 4
   of them), and an artifact's placement may name any PE on the grid.
   The fold refuses such a mapping, or an unplaced node, with an
   [Error] instead of raising. *)
let test_fold_rejects_bad_occupants () =
  let m = paged_mapping ~size:6 ~page_pes:8 "sobel" in
  let pages = m.Mapping.arch.Cgra.pages in
  let remainder =
    List.filter (fun pe -> Page.page_of_pe pages pe = None) (Grid.all_pes pages.Page.grid)
  in
  Alcotest.(check int) "remainder PEs on 6x6/p8" 4 (List.length remainder);
  let v =
    let rec placed v = if m.placements.(v) <> None then v else placed (v + 1) in
    placed 0
  in
  let with_node pl =
    let placements = Array.copy m.placements in
    placements.(v) <- pl;
    { m with Mapping.placements }
  in
  let time = (Mapping.placement_exn m v).time in
  List.iter
    (fun (what, bad) ->
      List.iter
        (fun target_pages ->
          match Transform.fold ~target_pages bad with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s folded to %d pages" what target_pages
          | exception e ->
              Alcotest.failf "%s raised %s" what (Printexc.to_string e))
        [ 1; 2 ])
    [
      ("remainder PE", with_node (Some { Mapping.pe = List.hd remainder; time }));
      ("off the grid", with_node (Some { Mapping.pe = Coord.make ~row:40 ~col:3; time }));
      ("unplaced node", with_node None);
    ]

(* ---------- end-to-end: fold then simulate ---------- *)

let test_fold_simulates_correctly () =
  List.iter
    (fun name ->
      let k = Cgra_kernels.Kernels.find_exn name in
      let m = paged_mapping name in
      let rec ladder target =
        if target >= 1 then begin
          let sh = fold_ok ~target_pages:target m in
          if sh.pe_exact then begin
            let mem = Cgra_kernels.Kernels.init_memory k in
            match Cgra_sim.Check.against_oracle sh.mapping mem ~iterations:24 with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s target %d: %s" name target (String.concat "; " es)
          end;
          ladder (target / 2)
        end
      in
      ladder (Mapping.n_pages_used m))
    [ "mpeg"; "sor"; "histeq"; "wavelet" ]

let prop_fold_synthetic =
  QCheck.Test.make ~name:"synthetic kernels fold exactly on square pages" ~count:20
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = 10 + (seed mod 8);
          mem_fraction = 0.25;
          recurrence = seed mod 4 = 0;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map Paged (arch 4 4) g with
      | Error _ -> false
      | Ok m -> (
          match Transform.fold ~target_pages:1 m with
          | Error _ -> false
          | Ok sh ->
              sh.pe_exact
              && Mapping.validate ~check_mem:false sh.mapping = Ok ()
              && sh.mapping.ii = Transform.ii_q ~ii_p:m.ii ~n_used:sh.n_used ~target_pages:1))

let () =
  Alcotest.run "transform"
    [
      ( "fold",
        [
          Alcotest.test_case "ii_q formula" `Quick test_ii_q;
          Alcotest.test_case "errors" `Quick test_fold_errors;
          Alcotest.test_case "identity when target covers" `Quick
            test_fold_identity_when_target_covers;
          Alcotest.test_case "ii matches formula (all kernels, all targets)" `Quick
            test_fold_ii_matches_formula;
          Alcotest.test_case "halving ladder validates" `Quick
            test_fold_whole_ladder_validates;
          Alcotest.test_case "square tiles always exact" `Quick
            test_fold_square_tiles_always_exact;
          Alcotest.test_case "fold to one page exact everywhere" `Slow
            test_fold_to_one_page_always_exact;
          Alcotest.test_case "stays in target range" `Quick test_fold_stays_in_target_range;
          Alcotest.test_case "fold from relocated base" `Quick
            test_fold_from_relocated_base;
          Alcotest.test_case "base page relocation" `Quick
            test_fold_base_page_relocation_valid;
          Alcotest.test_case "no slot collisions" `Quick test_fold_no_slot_collisions;
          Alcotest.test_case "fold factor" `Quick test_fold_factor;
          Alcotest.test_case "orientations length" `Quick test_orientations_length;
          Alcotest.test_case "matches the reference fold on the Fig. 8 grid" `Slow
            test_fold_matches_reference;
          Alcotest.test_case "pages used match the reference on the Fig. 8 grid" `Slow
            test_pages_used_matches_reference;
          Alcotest.test_case "bad occupants are errors" `Quick
            test_fold_rejects_bad_occupants;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "relocate identity" `Quick test_mirror_relocate_identity;
          Alcotest.test_case "relocate moves tile" `Quick test_mirror_relocate_moves_tile;
          Alcotest.test_case "relocate rejects foreign PE" `Quick
            test_mirror_relocate_rejects_foreign;
          Alcotest.test_case "solve without steps" `Quick test_mirror_solve_no_steps;
          Alcotest.test_case "Fig. 6 vertical fold" `Quick test_mirror_solve_fig6_fold;
          Alcotest.test_case "band reversal" `Quick test_mirror_band_reversal;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fold simulates correctly" `Quick
            test_fold_simulates_correctly;
          QCheck_alcotest.to_alcotest prop_fold_synthetic;
        ] );
    ]
