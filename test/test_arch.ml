open Cgra_arch

let coord = Alcotest.testable Coord.pp Coord.equal

let c r k = Coord.make ~row:r ~col:k

(* ---------- Coord ---------- *)

let test_coord_step () =
  Alcotest.check coord "north" (c 0 1) (Coord.step (c 1 1) Coord.North);
  Alcotest.check coord "south" (c 2 1) (Coord.step (c 1 1) Coord.South);
  Alcotest.check coord "east" (c 1 2) (Coord.step (c 1 1) Coord.East);
  Alcotest.check coord "west" (c 1 0) (Coord.step (c 1 1) Coord.West)

let test_coord_opposite () =
  List.iter
    (fun d ->
      Alcotest.(check bool) "double opposite" true
        (Coord.opposite (Coord.opposite d) = d))
    Coord.all_dirs

let test_coord_adjacent () =
  Alcotest.(check bool) "side" true (Coord.adjacent (c 0 0) (c 0 1));
  Alcotest.(check bool) "diagonal" false (Coord.adjacent (c 0 0) (c 1 1));
  Alcotest.(check bool) "self" false (Coord.adjacent (c 0 0) (c 0 0))

let test_coord_manhattan () =
  Alcotest.(check int) "distance" 5 (Coord.manhattan (c 0 0) (c 2 3))

(* ---------- Orient ---------- *)

let test_orient_identity () =
  Alcotest.check coord "id" (c 1 0)
    (Orient.apply Orient.identity ~tile_rows:2 ~tile_cols:2 (c 1 0))

let test_orient_flips () =
  Alcotest.check coord "flip rows" (c 0 1)
    (Orient.apply Orient.flip_rows ~tile_rows:2 ~tile_cols:2 (c 1 1));
  Alcotest.check coord "flip cols on 1x4" (c 0 3)
    (Orient.apply Orient.flip_cols ~tile_rows:1 ~tile_cols:4 (c 0 0))

let test_orient_involution () =
  List.iter
    (fun o ->
      List.iter
        (fun p ->
          let once = Orient.apply o ~tile_rows:2 ~tile_cols:2 p in
          if not (Orient.swaps_axes o) then
            Alcotest.check coord "flip twice = identity" p
              (Orient.apply o ~tile_rows:2 ~tile_cols:2 once))
        [ c 0 0; c 0 1; c 1 0; c 1 1 ])
    (Orient.all ~square:true)

let test_orient_all_counts () =
  Alcotest.(check int) "non-square" 4 (List.length (Orient.all ~square:false));
  Alcotest.(check int) "square" 8 (List.length (Orient.all ~square:true))

let test_orient_swap_rejected () =
  let swap = List.find Orient.swaps_axes (Orient.all ~square:true) in
  Alcotest.check_raises "non-square swap"
    (Invalid_argument "Orient.apply: axis swap on non-square tile") (fun () ->
      ignore (Orient.apply swap ~tile_rows:1 ~tile_cols:2 (c 0 0)))

let test_orient_bijective () =
  (* every symmetry permutes the tile *)
  let tile = [ c 0 0; c 0 1; c 1 0; c 1 1 ] in
  List.iter
    (fun o ->
      let img = List.map (Orient.apply o ~tile_rows:2 ~tile_cols:2) tile in
      Alcotest.(check int) "bijective" 4
        (List.length (List.sort_uniq Coord.compare img)))
    (Orient.all ~square:true)

let test_orient_preserves_adjacency () =
  List.iter
    (fun o ->
      List.iter
        (fun (a, b) ->
          let a' = Orient.apply o ~tile_rows:2 ~tile_cols:2 a in
          let b' = Orient.apply o ~tile_rows:2 ~tile_cols:2 b in
          Alcotest.(check bool) "isometry" (Coord.adjacent a b) (Coord.adjacent a' b'))
        [ (c 0 0, c 0 1); (c 0 0, c 1 1); (c 1 0, c 1 1) ])
    (Orient.all ~square:true)

let test_orient_compose () =
  let fr = Orient.flip_rows and fc = Orient.flip_cols in
  let both = Orient.compose fr fc in
  Alcotest.check coord "compose acts like sequence"
    (Orient.apply fr ~tile_rows:2 ~tile_cols:2
       (Orient.apply fc ~tile_rows:2 ~tile_cols:2 (c 0 1)))
    (Orient.apply both ~tile_rows:2 ~tile_cols:2 (c 0 1))

(* ---------- Grid ---------- *)

let test_grid_bounds () =
  let g = Grid.make ~rows:3 ~cols:4 in
  Alcotest.(check bool) "inside" true (Grid.in_bounds g (c 2 3));
  Alcotest.(check bool) "outside row" false (Grid.in_bounds g (c 3 0));
  Alcotest.(check bool) "negative" false (Grid.in_bounds g (c (-1) 0));
  Alcotest.(check int) "count" 12 (Grid.pe_count g)

let test_grid_invalid () =
  Alcotest.check_raises "zero rows"
    (Invalid_argument "Grid.make: dimensions must be positive") (fun () ->
      ignore (Grid.make ~rows:0 ~cols:2))

let test_grid_neighbors () =
  let g = Grid.square 3 in
  Alcotest.(check int) "corner" 2 (List.length (Grid.neighbors g (c 0 0)));
  Alcotest.(check int) "edge" 3 (List.length (Grid.neighbors g (c 0 1)));
  Alcotest.(check int) "centre" 4 (List.length (Grid.neighbors g (c 1 1)))

let test_grid_serpentine () =
  let g = Grid.make ~rows:3 ~cols:3 in
  let path = Grid.serpentine g in
  Alcotest.(check int) "covers all" 9 (Array.length path);
  for i = 0 to Array.length path - 2 do
    Alcotest.(check bool) "consecutive adjacent" true
      (Coord.adjacent path.(i) path.(i + 1))
  done;
  let uniq = Array.to_list path |> List.sort_uniq Coord.compare in
  Alcotest.(check int) "no repeats" 9 (List.length uniq)

let test_grid_serp_index () =
  let g = Grid.make ~rows:4 ~cols:4 in
  let path = Grid.serpentine g in
  Array.iteri
    (fun i pe -> Alcotest.(check int) "inverse" i (Grid.serp_index g pe))
    path

let test_grid_index () =
  let g = Grid.make ~rows:2 ~cols:3 in
  Alcotest.(check int) "row major" 5 (Grid.index g (c 1 2))

(* ---------- Page ---------- *)

let test_page_rect_counts () =
  let g = Grid.square 4 in
  let p = Page.rect g ~tile_rows:2 ~tile_cols:2 in
  Alcotest.(check int) "pages" 4 (Page.n_pages p);
  Alcotest.(check int) "size" 4 (Page.page_size p);
  Alcotest.(check int) "used" 16 (Page.used_pe_count p)

let test_page_rect_divisibility () =
  Alcotest.check_raises "bad tiling" (Invalid_argument "Page.make: tiles must divide the grid")
    (fun () -> ignore (Page.rect (Grid.square 6) ~tile_rows:2 ~tile_cols:4))

let test_page_roundtrip () =
  let p = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  for n = 0 to Page.n_pages p - 1 do
    List.iter
      (fun pe ->
        Alcotest.(check (option int)) "page_of_pe inverse" (Some n) (Page.page_of_pe p pe))
      (Page.pes_of_page p n)
  done

let test_page_serpentine_ring () =
  (* consecutive pages in ring order are physically adjacent *)
  List.iter
    (fun p ->
      for n = 0 to Page.n_pages p - 2 do
        Alcotest.(check bool)
          (Printf.sprintf "pages %d,%d share a boundary" n (n + 1))
          true
          (Page.boundary_pairs p n <> [])
      done)
    [
      Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2;
      Page.rect (Grid.square 4) ~tile_rows:1 ~tile_cols:2;
      Page.rect (Grid.square 8) ~tile_rows:2 ~tile_cols:4;
      Page.band (Grid.square 6) ~size:8;
    ]

let test_page_dir_between_4x4 () =
  let p = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  (* serpentine over a 2x2 tile grid: E, S, W *)
  Alcotest.(check bool) "0->1 east" true (Page.dir_between p 0 = Some Coord.East);
  Alcotest.(check bool) "1->2 south" true (Page.dir_between p 1 = Some Coord.South);
  Alcotest.(check bool) "2->3 west" true (Page.dir_between p 2 = Some Coord.West);
  Alcotest.(check bool) "3->4 none" true (Page.dir_between p 3 = None)

let test_page_band_remainder () =
  let p = Page.band (Grid.square 6) ~size:8 in
  Alcotest.(check int) "4 pages of 8 on 36 PEs" 4 (Page.n_pages p);
  Alcotest.(check int) "32 used" 32 (Page.used_pe_count p);
  (* the 4 remainder PEs map to no page *)
  let unassigned =
    List.filter (fun pe -> Page.page_of_pe p pe = None) (Grid.all_pes (Grid.square 6))
  in
  Alcotest.(check int) "remainder" 4 (List.length unassigned)

let test_page_band_path () =
  let p = Page.band (Grid.square 4) ~size:4 in
  (* PEs of a band page are consecutive on the serpentine *)
  List.iter
    (fun n ->
      let pes = Page.pes_of_page p n in
      List.iteri
        (fun i pe ->
          Alcotest.(check int) "serp position" ((n * 4) + i)
            (Grid.serp_index (Grid.square 4) pe))
        pes)
    [ 0; 1; 2; 3 ]

let test_page_for_size () =
  (* standard shapes used in the experiments *)
  (match Page.for_size (Grid.square 4) 2 with
  | Some p -> Alcotest.(check int) "4x4 p2 -> 8 pages" 8 (Page.n_pages p)
  | None -> Alcotest.fail "4x4 p2");
  (match Page.for_size (Grid.square 4) 4 with
  | Some p -> Alcotest.(check int) "4x4 p4 -> 4 pages" 4 (Page.n_pages p)
  | None -> Alcotest.fail "4x4 p4");
  Alcotest.(check bool) "4x4 p8 omitted" true (Page.for_size (Grid.square 4) 8 = None);
  (match Page.for_size (Grid.square 6) 8 with
  | Some p ->
      Alcotest.(check bool) "6x6 p8 is a band" true (not (Page.is_rect p));
      Alcotest.(check int) "4 pages" 4 (Page.n_pages p)
  | None -> Alcotest.fail "6x6 p8");
  match Page.for_size (Grid.square 8) 8 with
  | Some p ->
      Alcotest.(check bool) "8x8 p8 is rect" true (Page.is_rect p);
      Alcotest.(check int) "8 pages" 8 (Page.n_pages p)
  | None -> Alcotest.fail "8x8 p8"

let test_page_vlocal_roundtrip () =
  List.iter
    (fun p ->
      for n = 0 to Page.n_pages p - 1 do
        List.iter
          (fun pe ->
            match Page.vlocal p n pe with
            | None -> Alcotest.fail "vlocal"
            | Some local -> (
                let tr, tc = Page.vdims p in
                Alcotest.(check bool) "local in vdims" true
                  (local.Coord.row >= 0 && local.Coord.row < tr && local.Coord.col >= 0
                 && local.Coord.col < tc);
                match Page.vglobal p n local with
                | Some pe' -> Alcotest.check coord "roundtrip" pe pe'
                | None -> Alcotest.fail "vglobal"))
          (Page.pes_of_page p n)
      done)
    [
      Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2;
      Page.rect (Grid.square 4) ~tile_rows:1 ~tile_cols:2;
      Page.band (Grid.square 6) ~size:8;
    ]

let test_page_boundary_pairs_cross_pages () =
  let p = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (option int)) "a in page 0" (Some 0) (Page.page_of_pe p a);
      Alcotest.(check (option int)) "b in page 1" (Some 1) (Page.page_of_pe p b);
      Alcotest.(check bool) "adjacent" true (Coord.adjacent a b))
    (Page.boundary_pairs p 0);
  Alcotest.(check int) "two pairs across a 2-PE boundary" 2
    (List.length (Page.boundary_pairs p 0))

(* ---------- Cgra ---------- *)

let test_cgra_standard () =
  (match Cgra.standard ~size:4 ~page_pes:4 with
  | Some a ->
      Alcotest.(check int) "pages" 4 (Cgra.n_pages a);
      Alcotest.(check int) "pes" 16 (Cgra.pe_count a);
      Alcotest.(check bool) "rf provisioned" true (a.Cgra.rf_capacity >= 12)
  | None -> Alcotest.fail "4x4 p4");
  Alcotest.(check bool) "4x4 p8 omitted" true (Cgra.standard ~size:4 ~page_pes:8 = None)

let test_cgra_standard_size_range () =
  (* sizes outside 1..max_size are refused, never raised on or compiled *)
  List.iter
    (fun size ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d refused" size)
        true
        (Cgra.standard ~size ~page_pes:4 = None))
    [ 0; -1; Cgra.max_size + 1 ];
  Alcotest.(check bool) "largest size accepted" true
    (Cgra.standard ~size:Cgra.max_size ~page_pes:4 <> None);
  Alcotest.(check bool) "every experiment's fabric fits" true
    (List.for_all
       (fun size -> size <= Cgra.max_size)
       Cgra_core.Experiments.cgra_sizes)

let test_cgra_invalid () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  Alcotest.check_raises "bad rf" (Invalid_argument "Cgra.make: rf_capacity must be positive")
    (fun () -> ignore (Cgra.make ~rf_capacity:0 pages))

let prop_page_partition =
  QCheck.Test.make ~name:"rect pages partition the used grid" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (tr, tc) ->
      let g = Grid.make ~rows:(tr * 3) ~cols:(tc * 3) in
      let p = Page.rect g ~tile_rows:tr ~tile_cols:tc in
      List.for_all
        (fun pe ->
          match Page.page_of_pe p pe with
          | Some n -> List.exists (Coord.equal pe) (Page.pes_of_page p n)
          | None -> false)
        (Grid.all_pes g))

let () =
  Alcotest.run "arch"
    [
      ( "coord",
        [
          Alcotest.test_case "step" `Quick test_coord_step;
          Alcotest.test_case "opposite" `Quick test_coord_opposite;
          Alcotest.test_case "adjacent" `Quick test_coord_adjacent;
          Alcotest.test_case "manhattan" `Quick test_coord_manhattan;
        ] );
      ( "orient",
        [
          Alcotest.test_case "identity" `Quick test_orient_identity;
          Alcotest.test_case "flips" `Quick test_orient_flips;
          Alcotest.test_case "involution" `Quick test_orient_involution;
          Alcotest.test_case "candidate counts" `Quick test_orient_all_counts;
          Alcotest.test_case "swap rejected on non-square" `Quick test_orient_swap_rejected;
          Alcotest.test_case "bijective" `Quick test_orient_bijective;
          Alcotest.test_case "preserves adjacency" `Quick test_orient_preserves_adjacency;
          Alcotest.test_case "compose" `Quick test_orient_compose;
        ] );
      ( "grid",
        [
          Alcotest.test_case "bounds" `Quick test_grid_bounds;
          Alcotest.test_case "invalid" `Quick test_grid_invalid;
          Alcotest.test_case "neighbors" `Quick test_grid_neighbors;
          Alcotest.test_case "serpentine" `Quick test_grid_serpentine;
          Alcotest.test_case "serp_index inverse" `Quick test_grid_serp_index;
          Alcotest.test_case "index" `Quick test_grid_index;
        ] );
      ( "page",
        [
          Alcotest.test_case "rect counts" `Quick test_page_rect_counts;
          Alcotest.test_case "divisibility" `Quick test_page_rect_divisibility;
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "serpentine ring adjacency" `Quick test_page_serpentine_ring;
          Alcotest.test_case "dir_between 4x4" `Quick test_page_dir_between_4x4;
          Alcotest.test_case "band remainder" `Quick test_page_band_remainder;
          Alcotest.test_case "band path" `Quick test_page_band_path;
          Alcotest.test_case "for_size standard shapes" `Quick test_page_for_size;
          Alcotest.test_case "vlocal roundtrip" `Quick test_page_vlocal_roundtrip;
          Alcotest.test_case "boundary pairs" `Quick test_page_boundary_pairs_cross_pages;
          QCheck_alcotest.to_alcotest prop_page_partition;
        ] );
      ( "cgra",
        [
          Alcotest.test_case "standard" `Quick test_cgra_standard;
          Alcotest.test_case "standard size range" `Quick
            test_cgra_standard_size_range;
          Alcotest.test_case "invalid" `Quick test_cgra_invalid;
        ] );
    ]
