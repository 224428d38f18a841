type t = { rows : int; cols : int }

let make ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid.make: dimensions must be positive";
  { rows; cols }

let square n = make ~rows:n ~cols:n

let pe_count t = t.rows * t.cols

let in_bounds t (c : Coord.t) =
  c.row >= 0 && c.row < t.rows && c.col >= 0 && c.col < t.cols

let neighbors t c =
  List.filter_map
    (fun d ->
      let n = Coord.step c d in
      if in_bounds t n then Some n else None)
    Coord.all_dirs

let all_pes t =
  List.concat_map
    (fun row -> List.init t.cols (fun col -> Coord.make ~row ~col))
    (List.init t.rows Fun.id)

let serpentine t =
  Array.init (pe_count t) (fun k ->
      let row = k / t.cols in
      let j = k mod t.cols in
      let col = if row mod 2 = 0 then j else t.cols - 1 - j in
      Coord.make ~row ~col)

let index t (c : Coord.t) = (c.row * t.cols) + c.col

let serp_index t (c : Coord.t) =
  let j = if c.row mod 2 = 0 then c.col else t.cols - 1 - c.col in
  (c.row * t.cols) + j

let pp ppf t = Format.fprintf ppf "%dx%d" t.rows t.cols
