open Cgra_arch
open Cgra_mapper

type shrunk = {
  mapping : Mapping.t;
  source : Mapping.t;
  n_used : int;
  m_eff : int;
  s : int;
  base_page : int;
  orientations : Orient.t array;
  pe_exact : bool;
}

let cdiv a b = (a + b - 1) / b

let ii_q ~ii_p ~n_used ~target_pages =
  if n_used <= 0 then ii_p else ii_p * cdiv n_used (min target_pages (max 1 n_used))

exception Bad of string

(* Marks the page of one occupant; [Bad] when it is outside every page.
   Here and in [fold], grid indices and relocations are written out
   instead of calling [Grid] and [Page.move]: the dev profile compiles
   with [-opaque], so each such call stays out of line, through the
   callee's closure, and on perfbench's warm launches the calls in the
   fold, the decoder and [Mirror] together cost about 0.6 µs at the
   p50. *)
let visit (tb : Page.tables) (grid : Grid.t) used (p : Mapping.placement) =
  let c = p.pe in
  let pg =
    if c.row >= 0 && c.row < grid.rows && c.col >= 0 && c.col < grid.cols then
      tb.page_of.((c.row * grid.cols) + c.col)
    else -1
  in
  if pg < 0 then
    raise
      (Bad (Printf.sprintf "Transform.fold: occupant %s outside any page" (Coord.to_string c)));
  used.(pg) <- true

let rec visit_hops tb grid used = function
  | [] -> ()
  | h :: rest ->
      visit tb grid used h;
      visit_hops tb grid used rest

(* The pages a paged source occupies, as a bool per fabric page; [Error]
   for a node the mapping leaves unplaced or an occupant outside every
   page (off the grid, or on a band fabric's remainder PEs), which a
   hostile artifact can carry past the codec. *)
let occupied (tb : Page.tables) (src : Mapping.t) =
  let grid = src.arch.Cgra.grid in
  let used = Array.make (Page.n_pages src.arch.Cgra.pages) false in
  match
    for v = 0 to Array.length src.placements - 1 do
      match src.placements.(v) with
      | Some p -> visit tb grid used p
      | None -> (
          match (Cgra_dfg.Graph.node src.graph v).op with
          | Cgra_dfg.Op.Const _ -> ()
          | _ -> raise (Bad (Printf.sprintf "Transform.fold: node %d is unplaced" v)))
    done;
    List.iter (fun (r : Mapping.route) -> visit_hops tb grid used r.hops) src.routes
  with
  | () -> Ok used
  | exception Bad e -> Error e

let fold ?(base_page = 0) ~target_pages (src : Mapping.t) =
  let pages = src.arch.Cgra.pages in
  let grid = src.arch.Cgra.grid in
  let tb = Page.tables pages in
  if not src.paged then Error "Transform.fold: source mapping is not paged"
  else if target_pages < 1 then Error "Transform.fold: target_pages < 1"
  else
    match occupied tb src with
    | Error _ as e -> e
    | Ok used ->
        let n_used = Array.fold_left (fun n u -> if u then n + 1 else n) 0 used in
        if n_used = 0 then Error "Transform.fold: empty mapping"
        else begin
          (* The allocator may have placed the source at any base: renumber
             its pages relative to the lowest one so the fold arrays are
             indexed [0 .. n_used-1] whatever the source's absolute range. *)
          let rec lowest pg = if used.(pg) then pg else lowest (pg + 1) in
          let src_base = lowest 0 in
          let rec run_ends pg = pg = src_base + n_used || (used.(pg) && run_ends (pg + 1)) in
          if not (run_ends src_base) then
            Error "Transform.fold: source pages are not a contiguous ring run"
          else begin
            (* every occupant is on a page of the run: [occupied] checked *)
            let rel i = tb.page_of.(i) - src_base in
            let m_eff = min target_pages n_used in
            let s = cdiv n_used m_eff in
            if base_page < 0 || base_page + m_eff > Page.n_pages pages then
              Error
                (Printf.sprintf "Transform.fold: pages [%d, %d) exceed the fabric"
                   base_page (base_page + m_eff))
            else begin
              (* Cross-page steps constrain the per-page mirroring. *)
              let cross_steps = Array.make (max 1 (n_used - 1)) [] in
              let cols = grid.Grid.cols in
              Mapping.iter_steps src (fun a b ->
                  let ia = (a.pe.row * cols) + a.pe.col and ib = (b.pe.row * cols) + b.pe.col in
                  let pa = rel ia in
                  if rel ib = pa + 1 then cross_steps.(pa) <- (ia, ib) :: cross_steps.(pa));
              let ranks, pe_exact =
                match Mirror.solve tb ~src_base ~n_used ~s ~base:base_page ~cross_steps with
                | Some o -> (o, true)
                | None -> (Array.make n_used 0 (* the identity *), false)
              in
              (* [Page.move], read straight from the tables *)
              let move (p : Mapping.placement) =
                let i = (p.pe.row * cols) + p.pe.col in
                let n = rel i in
                let pe =
                  tb.pe_at.(((base_page + (n / s)) * tb.page_size)
                            + tb.act.(ranks.(n)).(tb.local_of.(i)))
                in
                { Mapping.pe = tb.coord.(pe); time = (p.time * s) + (n mod s) }
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
              Ok
                {
                  mapping;
                  source = src;
                  n_used;
                  m_eff;
                  s;
                  base_page;
                  orientations = Array.map (fun o -> tb.orients.(o)) ranks;
                  pe_exact;
                }
            end
          end
        end
