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
   leading version if the encoding ever has to change shape.  Every store
   load derives it, so it is written digit by digit: [Printf] and
   [string_of_int] both interpret a format at run time, which costs
   several times as much. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.chr (Char.code '0' + (n mod 10)))
  end

let fingerprint t =
  let b = Buffer.create 64 in
  let str = Buffer.add_string b and int = add_int b in
  str "cgra-v1;grid=";
  int t.grid.Grid.rows;
  str ",";
  int t.grid.Grid.cols;
  (match t.pages.Page.shape with
  | Page.Rect { tile_rows; tile_cols } ->
      str ";pages=rect:";
      int tile_rows;
      str ",";
      int tile_cols
  | Page.Band { size } ->
      str ";pages=band:";
      int size);
  str ";rf=";
  int t.rf_capacity;
  str ";memports=";
  int t.mem_ports_per_row;
  Buffer.contents b
