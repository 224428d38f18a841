open Cgra_arch
open Cgra_dfg

type placement = { pe : Coord.t; time : int }

type route = { edge : Graph.edge; hops : placement list }

type t = {
  arch : Cgra.t;
  graph : Graph.t;
  ii : int;
  placements : placement option array;
  routes : route list;
  paged : bool;
}

let placement_exn t v =
  match t.placements.(v) with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Mapping.placement_exn: node %d unplaced" v)

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

let schedule_length t =
  1
  + List.fold_left (fun acc (_, p) -> max acc p.time) 0 (all_occupants t)

let utilization t =
  let occupied = List.length (all_occupants t) in
  float_of_int occupied /. float_of_int (Cgra.pe_count t.arch * t.ii)

(* ----- validation ---------------------------------------------------- *)

(* The effective read time of edge [e] at its consumer, in the producer's
   iteration frame. *)
let consumer_read_time t (e : Graph.edge) =
  (placement_exn t e.dst).time + (e.distance * t.ii)

let is_const t v = match (Graph.node t.graph v).op with Op.Const _ -> true | _ -> false

(* Each edge's route, found through its consumer: a node has one
   incoming edge per operand, so a bucket holds a handful of routes.
   Buckets keep [t.routes]' order, so the first route listed for an edge
   is the one found. *)
let route_index t =
  let by_dst = Array.make (Graph.n_nodes t.graph) [] in
  List.iter
    (fun r ->
      let d = r.edge.Graph.dst in
      if d >= 0 && d < Array.length by_dst then by_dst.(d) <- r :: by_dst.(d))
    (List.rev t.routes);
  fun (e : Graph.edge) -> List.find_opt (fun r -> r.edge = e) by_dst.(e.dst)

let hops_of route_for e = match route_for e with None -> [] | Some r -> r.hops

(* Same-page adjacency for reads.  For band pages the transformation may
   reverse a page, which only preserves path-consecutive adjacency. *)
let read_adjacent t ~same_page a b =
  Coord.equal a b
  || Coord.adjacent a b
     &&
     if same_page && not (Page.is_rect t.arch.Cgra.pages) then
       abs (Grid.serp_index t.arch.Cgra.grid a - Grid.serp_index t.arch.Cgra.grid b) = 1
     else true

(* Adjacency for the page-boundary crossing of a cross-page edge.  Band
   pages only guarantee the serpentine junction survives page reversal. *)
let cross_adjacent t a b =
  Coord.adjacent a b
  && (Page.is_rect t.arch.Cgra.pages
     || abs (Grid.serp_index t.arch.Cgra.grid a - Grid.serp_index t.arch.Cgra.grid b) = 1)

let steps t =
  let route_for = route_index t in
  List.concat_map
    (fun (e : Graph.edge) ->
      if is_const t e.src then []
      else
        let pu = placement_exn t e.src and pv = placement_exn t e.dst in
        let hops = hops_of route_for e in
        let rec chain prev acc = function
          | [] -> List.rev ((prev, pv) :: acc)
          | h :: rest -> chain h ((prev, h) :: acc) rest
        in
        chain pu [] hops)
    (Graph.edges t.graph)

type value_key =
  | Produced of int
  | Relayed of Graph.edge * int

type transfer = {
  key : value_key;
  holder : placement;
  reader_pe : Coord.t;
  read_time : int;
}

let transfers t =
  let route_for = route_index t in
  List.concat_map
    (fun (e : Graph.edge) ->
      if is_const t e.src then []
      else
        let pu = placement_exn t e.src and pv = placement_exn t e.dst in
        let final_read = consumer_read_time t e in
        let hops = hops_of route_for e in
        let rec chain prev_key (prev : placement) acc idx = function
          | [] ->
              List.rev
                ({ key = prev_key; holder = prev; reader_pe = pv.pe;
                   read_time = final_read }
                :: acc)
          | (h : placement) :: rest ->
              let step =
                { key = prev_key; holder = prev; reader_pe = h.pe; read_time = h.time }
              in
              chain (Relayed (e, idx)) h (step :: acc) (idx + 1) rest
        in
        chain (Produced e.src) pu [] 0 hops)
    (Graph.edges t.graph)

let validate ?(check_mem = true) t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let g = t.graph in
  let arch = t.arch in
  let pages = arch.Cgra.pages in
  if t.ii < 1 then err "ii %d < 1" t.ii;
  (* every non-const node placed, in bounds, at time >= 0 *)
  Array.iteri
    (fun v pl ->
      match (pl, is_const t v) with
      | None, false -> err "node %d is unplaced" v
      | Some _, true -> err "const node %d should not be placed" v
      | Some p, false ->
          if not (Grid.in_bounds arch.Cgra.grid p.pe) then
            err "node %d placed out of bounds at %s" v (Coord.to_string p.pe);
          if p.time < 0 then err "node %d scheduled at negative time %d" v p.time;
          if t.paged && Page.page_of_pe pages p.pe = None then
            err "node %d placed on unused remainder PE %s" v (Coord.to_string p.pe)
      | None, true -> ())
    t.placements;
  if !errs <> [] then Error (List.rev !errs)
  else begin
    (* exclusive slot occupancy *)
    let occ = Hashtbl.create 64 in
    List.iter
      (fun (who, (p : placement)) ->
        let key = (Grid.index arch.Cgra.grid p.pe, p.time mod t.ii) in
        (match Hashtbl.find_opt occ key with
        | Some _ ->
            err "slot conflict at %s mod-slot %d" (Coord.to_string p.pe)
              (p.time mod t.ii)
        | None -> ());
        Hashtbl.add occ key who)
      (all_occupants t);
    (* memory ports per row per modulo cycle *)
    let mem_use = Hashtbl.create 16 in
    Array.iteri
      (fun v pl ->
        match pl with
        | Some (p : placement) when Op.is_mem (Graph.node g v).op ->
            let key = (p.pe.Coord.row, p.time mod t.ii) in
            let n = Option.value ~default:0 (Hashtbl.find_opt mem_use key) in
            Hashtbl.replace mem_use key (n + 1)
        | Some _ | None -> ())
      t.placements;
    if check_mem then
      Hashtbl.iter
        (fun (row, slot) n ->
          if n > arch.Cgra.mem_ports_per_row then
            err "row %d mod-slot %d uses %d memory ports (limit %d)" row slot n
              arch.Cgra.mem_ports_per_row)
        mem_use;
    (* edges: realizability and paging rules; collect value instances for
       register-file accounting as we go *)
    let instances = Hashtbl.create 64 in
    (* key: (pe index, birth time); value: mutable last read time *)
    let record_use ~pe ~born ~read =
      let key = (Grid.index arch.Cgra.grid pe, born) in
      let last = Option.value ~default:born (Hashtbl.find_opt instances key) in
      Hashtbl.replace instances key (max last read)
    in
    let route_for = route_index t in
    let check_edge (e : Graph.edge) =
      if is_const t e.src then begin
        if route_for e <> None then
          err "edge %d->%d from const has a route" e.src e.dst
      end
      else begin
        let pu = placement_exn t e.src and pv = placement_exn t e.dst in
        let read_time = consumer_read_time t e in
        (* One producer-to-reader step of the chain: legal when it stays
           in its page (same-page reach) or advances exactly one page
           across a boundary-adjacent pair.  Without paging, plain
           register-file reach. *)
        let step_ok a b =
          if not t.paged then read_adjacent t ~same_page:false a b
          else
            match (Page.page_of_pe pages a, Page.page_of_pe pages b) with
            | Some pa, Some pb when pb = pa -> read_adjacent t ~same_page:true a b
            | Some pa, Some pb when pb = pa + 1 -> cross_adjacent t a b
            | Some _, Some _ | None, _ | _, None -> false
        in
        (* Producer -> hop1 -> ... -> hopK -> consumer. *)
        let hops = hops_of route_for e in
        let ok = ref true in
        let prev = ref (pu : placement) in
        List.iter
          (fun (h : placement) ->
            if not (step_ok !prev.pe h.pe) then begin
              err "edge %d->%d route hop %s unreachable from %s" e.src e.dst
                (Coord.to_string h.pe) (Coord.to_string !prev.pe);
              ok := false
            end;
            if h.time < !prev.time + 1 then begin
              err "edge %d->%d route hop at %d too early (prev %d)" e.src e.dst h.time
                !prev.time;
              ok := false
            end;
            record_use ~pe:!prev.pe ~born:!prev.time ~read:h.time;
            prev := h)
          hops;
        if !ok then begin
          if not (step_ok !prev.pe pv.pe) then
            err "edge %d->%d consumer at %s cannot read %s" e.src e.dst
              (Coord.to_string pv.pe) (Coord.to_string !prev.pe);
          if read_time < !prev.time + 1 then
            err "edge %d->%d read at %d before value ready at %d" e.src e.dst
              read_time !prev.time;
          record_use ~pe:!prev.pe ~born:!prev.time ~read:read_time
        end
      end
    in
    List.iter check_edge (Graph.edges g);
    (* memory ordering: conflicting accesses must keep sequential order *)
    List.iter
      (fun (o : Memdep.t) ->
        match (t.placements.(o.src), t.placements.(o.dst)) with
        | Some a, Some b ->
            if b.time + (o.distance * t.ii) < a.time + 1 then
              err "memory ordering %d->%d (distance %d) violated (%d vs %d)" o.src
                o.dst o.distance a.time b.time
        | None, _ | _, None -> ())
      (Memdep.ordering g);
    (* routes must correspond to real edges, one per edge *)
    let edge_set = Graph.edges g in
    List.iter
      (fun r ->
        if not (List.mem r.edge edge_set) then err "route for a non-existent edge")
      t.routes;
    let keys = List.map (fun r -> r.edge) t.routes in
    if List.length keys <> List.length (List.sort_uniq compare keys) then
      err "duplicate routes for one edge";
    (* register-file pressure: a value alive l cycles needs ceil(l/ii)
       rotating registers *)
    let rf = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (pe_idx, born) last ->
        let lifetime = last - born in
        if lifetime > 0 then begin
          let regs = (lifetime + t.ii - 1) / t.ii in
          let n = Option.value ~default:0 (Hashtbl.find_opt rf pe_idx) in
          Hashtbl.replace rf pe_idx (n + regs)
        end)
      instances;
    Hashtbl.iter
      (fun pe_idx n ->
        if n > arch.Cgra.rf_capacity then
          err "PE index %d needs %d registers (capacity %d)" pe_idx n
            arch.Cgra.rf_capacity)
      rf;
    (* paged: used pages form a contiguous run of the ring order (the
       compiler emits base 0; the runtime may relocate to any base) *)
    if t.paged then begin
      match pages_used t with
      | [] -> ()
      | first :: _ as used ->
          List.iteri
            (fun i pg ->
              if pg <> first + i then
                err "pages used are not contiguous: %d at rank %d (base %d)" pg i first)
            used
    end;
    match List.rev !errs with [] -> Ok () | es -> Error es
  end

(* ----- rendering ------------------------------------------------------ *)

let pp ppf t =
  let arch = t.arch in
  let cell = Array.make_matrix t.ii (Cgra.pe_count arch) "." in
  List.iter
    (fun (who, (p : placement)) ->
      let s =
        match who with `Op v -> string_of_int v | `Hop (e : Graph.edge) ->
          Printf.sprintf "r%d" e.src
      in
      cell.(p.time mod t.ii).(Grid.index arch.Cgra.grid p.pe) <- s)
    (all_occupants t);
  let rows = arch.Cgra.grid.Grid.rows and cols = arch.Cgra.grid.Grid.cols in
  for slot = 0 to t.ii - 1 do
    Format.fprintf ppf "slot %d:@." slot;
    for r = 0 to rows - 1 do
      Format.pp_print_string ppf "  ";
      for c = 0 to cols - 1 do
        Format.fprintf ppf "%4s" cell.(slot).((r * cols) + c)
      done;
      Format.pp_print_newline ppf ()
    done
  done

let pp_stats ppf t =
  Format.fprintf ppf "%s on %a: II=%d, pages=%d, len=%d, util=%.1f%%"
    (Graph.name t.graph) Cgra.pp t.arch t.ii (n_pages_used t) (schedule_length t)
    (100.0 *. utilization t)
