type shape =
  | Rect of { tile_rows : int; tile_cols : int }
  | Band of { size : int }

type t = { grid : Grid.t; shape : shape }

let make grid shape =
  (match shape with
  | Rect { tile_rows; tile_cols } ->
      if tile_rows <= 0 || tile_cols <= 0 then
        invalid_arg "Page.make: tile dimensions must be positive";
      if grid.Grid.rows mod tile_rows <> 0 || grid.Grid.cols mod tile_cols <> 0 then
        invalid_arg "Page.make: tiles must divide the grid"
  | Band { size } ->
      if size <= 0 then invalid_arg "Page.make: band size must be positive";
      if size > Grid.pe_count grid then
        invalid_arg "Page.make: band larger than the grid");
  { grid; shape }

let rect grid ~tile_rows ~tile_cols = make grid (Rect { tile_rows; tile_cols })

let band grid ~size = make grid (Band { size })

let n_pages t =
  match t.shape with
  | Rect { tile_rows; tile_cols } ->
      (t.grid.Grid.rows / tile_rows) * (t.grid.Grid.cols / tile_cols)
  | Band { size } -> Grid.pe_count t.grid / size

let page_size t =
  match t.shape with
  | Rect { tile_rows; tile_cols } -> tile_rows * tile_cols
  | Band { size } -> size

let used_pe_count t = n_pages t * page_size t

let for_size grid size =
  let fits shape =
    match shape with
    | Rect { tile_rows; tile_cols } ->
        grid.Grid.rows mod tile_rows = 0 && grid.Grid.cols mod tile_cols = 0
    | Band _ -> true
  in
  let shape =
    match size with
    | 2 -> Some (Rect { tile_rows = 1; tile_cols = 2 })
    | 4 -> Some (Rect { tile_rows = 2; tile_cols = 2 })
    | 8 -> Some (Rect { tile_rows = 2; tile_cols = 4 })
    | n when n > 0 && Grid.pe_count grid mod n = 0 && n <= grid.Grid.cols ->
        Some (Rect { tile_rows = 1; tile_cols = n })
    | _ -> None
  in
  let shape =
    match shape with
    | Some s when fits s -> Some s
    | Some _ | None ->
        if size > 0 && size <= Grid.pe_count grid then Some (Band { size }) else None
  in
  match shape with
  | None -> None
  | Some s ->
      let t = make grid s in
      (* The paper skips configurations with fewer than four pages ("not
         enough multithreading potential using only two pages" for 8-PE
         pages on 4x4); this threshold reproduces exactly its eight
         size/page-size combinations. *)
      if n_pages t >= 4 then Some t else None

(* Serpentine order over the tile grid: tile-row 0 runs left-to-right,
   tile-row 1 right-to-left, and so on, so consecutive pages share an
   edge. *)
let tile_grid_dims t =
  match t.shape with
  | Rect { tile_rows; tile_cols } ->
      (t.grid.Grid.rows / tile_rows, t.grid.Grid.cols / tile_cols)
  | Band _ -> invalid_arg "Page.tile_grid_dims: band shape"

let tile_coord t n =
  let _, tc = tile_grid_dims t in
  let tile_row = n / tc in
  let j = n mod tc in
  let tile_col = if tile_row mod 2 = 0 then j else tc - 1 - j in
  (tile_row, tile_col)

let tile_index t ~tile_row ~tile_col =
  let _, tc = tile_grid_dims t in
  let j = if tile_row mod 2 = 0 then tile_col else tc - 1 - tile_col in
  (tile_row * tc) + j

let is_rect t = match t.shape with Rect _ -> true | Band _ -> false

let is_square_tile t =
  match t.shape with
  | Rect { tile_rows; tile_cols } -> tile_rows = tile_cols
  | Band _ -> false

let tile_origin t n =
  match t.shape with
  | Band _ -> None
  | Rect { tile_rows; tile_cols } ->
      if n < 0 || n >= n_pages t then None
      else
        let tr, tc = tile_coord t n in
        Some (Coord.make ~row:(tr * tile_rows) ~col:(tc * tile_cols))

let page_of_pe t (c : Coord.t) =
  if not (Grid.in_bounds t.grid c) then None
  else
    match t.shape with
    | Rect { tile_rows; tile_cols } ->
        let tile_row = c.row / tile_rows and tile_col = c.col / tile_cols in
        Some (tile_index t ~tile_row ~tile_col)
    | Band { size } ->
        (* Position along the PE serpentine. *)
        let cols = t.grid.Grid.cols in
        let j = if c.row mod 2 = 0 then c.col else cols - 1 - c.col in
        let k = (c.row * cols) + j in
        let page = k / size in
        if page < n_pages t then Some page else None

let pes_of_page t n =
  if n < 0 || n >= n_pages t then invalid_arg "Page.pes_of_page: bad index";
  match t.shape with
  | Rect { tile_rows; tile_cols } ->
      let origin = Option.get (tile_origin t n) in
      List.concat_map
        (fun dr ->
          List.init tile_cols (fun dc ->
              Coord.make ~row:(origin.Coord.row + dr) ~col:(origin.Coord.col + dc)))
        (List.init tile_rows Fun.id)
  | Band { size } ->
      let path = Grid.serpentine t.grid in
      List.init size (fun i -> path.((n * size) + i))

let local_of t n (c : Coord.t) =
  match (t.shape, tile_origin t n) with
  | Rect _, Some origin
    when page_of_pe t c = Some n ->
      Some (Coord.make ~row:(c.row - origin.Coord.row) ~col:(c.col - origin.Coord.col))
  | (Rect _ | Band _), _ -> None

let global_of t n (local : Coord.t) =
  match (t.shape, tile_origin t n) with
  | Rect { tile_rows; tile_cols }, Some origin
    when local.row >= 0 && local.row < tile_rows && local.col >= 0
         && local.col < tile_cols ->
      Some (Coord.add origin local)
  | (Rect _ | Band _), _ -> None

let vdims t =
  match t.shape with
  | Rect { tile_rows; tile_cols } -> (tile_rows, tile_cols)
  | Band { size } -> (1, size)

let vlocal t n (c : Coord.t) =
  match t.shape with
  | Rect _ -> local_of t n c
  | Band { size } ->
      if page_of_pe t c = Some n then
        Some (Coord.make ~row:0 ~col:(Grid.serp_index t.grid c - (n * size)))
      else None

let vglobal t n (local : Coord.t) =
  match t.shape with
  | Rect _ -> global_of t n local
  | Band { size } ->
      if local.row = 0 && local.col >= 0 && local.col < size && n >= 0 && n < n_pages t
      then Some (Grid.serpentine t.grid).((n * size) + local.col)
      else None

(* ----- int tables for the PageMaster fold ----- *)

type tables = {
  page_size : int;
  page_of : int array;
  local_of : int array;
  pe_at : int array;
  coord : Coord.t array;
  orients : Orient.t array;
  act : int array array;
}

(* Everything below is derived from [vlocal], [vglobal] and
   [Orient.apply], so the tables and the coordinate functions cannot
   disagree.  Local indices are row-major over [vdims]. *)
let build_tables t =
  let grid = t.grid in
  let size = page_size t in
  let vrows, vcols = vdims t in
  let local_coord l = Coord.make ~row:(l / vcols) ~col:(l mod vcols) in
  let local_index (c : Coord.t) = (c.row * vcols) + c.col in
  let coord =
    Array.init (Grid.pe_count grid) (fun i ->
        Coord.make ~row:(i / grid.Grid.cols) ~col:(i mod grid.Grid.cols))
  in
  let page_of = Array.map (fun c -> Option.value ~default:(-1) (page_of_pe t c)) coord in
  let local_of =
    Array.mapi
      (fun i c ->
        if page_of.(i) < 0 then -1 else local_index (Option.get (vlocal t page_of.(i) c)))
      coord
  in
  let pe_at =
    Array.init (n_pages t * size) (fun k ->
        Grid.index grid (Option.get (vglobal t (k / size) (local_coord (k mod size)))))
  in
  let orients = Array.of_list (Orient.all ~square:(is_square_tile t)) in
  let act =
    Array.map
      (fun o ->
        Array.init size (fun l ->
            local_index (Orient.apply o ~tile_rows:vrows ~tile_cols:vcols (local_coord l))))
      orients
  in
  { page_size = size; page_of; local_of; pe_at; coord; orients; act }

(* Keyed by value: callers rebuild equal [t]s freely (one per
   [Cgra.standard] call), and a layout is only a grid and a shape. *)
let tables_memo : (t, tables) Hashtbl.t = Hashtbl.create 16

let tables_lock = Mutex.create ()

let tables t =
  Mutex.protect tables_lock (fun () ->
      match Hashtbl.find_opt tables_memo t with
      | Some tb -> tb
      | None ->
          let tb = build_tables t in
          Hashtbl.add tables_memo t tb;
          tb)

let move tb ~orient ~dst_page i =
  tb.pe_at.((dst_page * tb.page_size) + tb.act.(orient).(tb.local_of.(i)))

let dir_between t n =
  match t.shape with
  | Band _ -> None
  | Rect _ ->
      if n < 0 || n + 1 >= n_pages t then None
      else
        let r0, c0 = tile_coord t n and r1, c1 = tile_coord t (n + 1) in
        if r1 = r0 && c1 = c0 + 1 then Some Coord.East
        else if r1 = r0 && c1 = c0 - 1 then Some Coord.West
        else if r1 = r0 + 1 && c1 = c0 then Some Coord.South
        else None

let boundary_pairs t n =
  if n < 0 || n + 1 >= n_pages t then []
  else
    let next = pes_of_page t (n + 1) in
    List.concat_map
      (fun a -> List.filter_map (fun b -> if Coord.adjacent a b then Some (a, b) else None) next)
      (pes_of_page t n)

let pp ppf t =
  match t.shape with
  | Rect { tile_rows; tile_cols } ->
      Format.fprintf ppf "%a/rect%dx%d(%d pages)" Grid.pp t.grid tile_rows tile_cols
        (n_pages t)
  | Band { size } ->
      Format.fprintf ppf "%a/band%d(%d pages)" Grid.pp t.grid size (n_pages t)
