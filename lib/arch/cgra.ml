type t = {
  grid : Grid.t;
  pages : Page.t;
  rf_capacity : int;
  mem_ports_per_row : int;
}

let make ?rf_capacity ?(mem_ports_per_row = 2) pages =
  let rf_capacity =
    match rf_capacity with Some c -> c | None -> max 16 (3 * Page.n_pages pages)
  in
  if rf_capacity <= 0 then invalid_arg "Cgra.make: rf_capacity must be positive";
  if mem_ports_per_row <= 0 then
    invalid_arg "Cgra.make: mem_ports_per_row must be positive";
  { grid = pages.Page.grid; pages; rf_capacity; mem_ports_per_row }

let max_size = 16

let standard ~size ~page_pes =
  if size < 1 || size > max_size then None
  else Option.map make (Page.for_size (Grid.square size) page_pes)

let n_pages t = Page.n_pages t.pages

let pe_count t = Grid.pe_count t.grid

let pp ppf t =
  Format.fprintf ppf "CGRA %a rf=%d memports/row=%d" Page.pp t.pages t.rf_capacity
    t.mem_ports_per_row

(* The canonical identity is deliberately not [pp]: pretty-printers are
   free to re-wrap or re-word, while this string is a pinned contract
   (golden-tested) that persistent cache keys are derived from.  Bump the
   leading version if the encoding ever has to change shape. *)
let fingerprint t =
  let shape =
    match t.pages.Page.shape with
    | Page.Rect { tile_rows; tile_cols } ->
        Printf.sprintf "rect:%d,%d" tile_rows tile_cols
    | Page.Band { size } -> Printf.sprintf "band:%d" size
  in
  Printf.sprintf "cgra-v1;grid=%d,%d;pages=%s;rf=%d;memports=%d"
    t.grid.Grid.rows t.grid.Grid.cols shape t.rf_capacity t.mem_ports_per_row
