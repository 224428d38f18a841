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

(* The pages a paged source occupies, as a bool per fabric page; [Error]
   for a node the mapping leaves unplaced or an occupant outside every
   page (off the grid, or on a band fabric's remainder PEs), which a
   hostile artifact can carry past the codec. *)
let occupied (tb : Page.tables) (src : Mapping.t) =
  let grid = src.arch.Cgra.grid in
  let used = Array.make (Page.n_pages src.arch.Cgra.pages) false in
  let exception Bad of string in
  let visit (p : Mapping.placement) =
    let pg = if Grid.in_bounds grid p.pe then tb.page_of.(Grid.index grid p.pe) else -1 in
    if pg < 0 then
      raise
        (Bad
           (Printf.sprintf "Transform.fold: occupant %s outside any page"
              (Coord.to_string p.pe)));
    used.(pg) <- true
  in
  match
    Array.iteri
      (fun v -> function
        | Some p -> visit p
        | None -> (
            match (Cgra_dfg.Graph.node src.graph v).op with
            | Cgra_dfg.Op.Const _ -> ()
            | _ -> raise (Bad (Printf.sprintf "Transform.fold: node %d is unplaced" v))))
      src.placements;
    List.iter (fun (r : Mapping.route) -> List.iter visit r.hops) src.routes
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
          if not (Array.for_all Fun.id (Array.sub used src_base n_used)) then
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
              List.iter
                (fun ((a : Mapping.placement), (b : Mapping.placement)) ->
                  let ia = Grid.index grid a.pe and ib = Grid.index grid b.pe in
                  let pa = rel ia in
                  if rel ib = pa + 1 then cross_steps.(pa) <- (ia, ib) :: cross_steps.(pa))
                (Mapping.steps src);
              let ranks, pe_exact =
                match Mirror.solve tb ~src_base ~n_used ~s ~base:base_page ~cross_steps with
                | Some o -> (o, true)
                | None -> (Array.make n_used 0 (* the identity *), false)
              in
              let move (p : Mapping.placement) =
                let i = Grid.index grid p.pe in
                let n = rel i in
                let pe = Page.move tb ~orient:ranks.(n) ~dst_page:(base_page + (n / s)) i in
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
