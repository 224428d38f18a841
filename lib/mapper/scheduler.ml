open Cgra_arch
open Cgra_dfg

let log_src = Logs.Src.create "cgra.mapper" ~doc:"CGRA modulo scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type kind = Unconstrained | Paged

let schedulable_nodes g =
  List.filter_map
    (fun (n : Graph.node) ->
      match n.op with Op.Const _ -> None | _ -> Some n.id)
    (Graph.nodes g)

let mii kind arch g =
  let pes =
    match kind with
    | Unconstrained -> Cgra.pe_count arch
    | Paged -> Page.used_pe_count arch.Cgra.pages
  in
  let mem_slots_per_cycle = arch.Cgra.grid.Grid.rows * arch.Cgra.mem_ports_per_row in
  (* Const nodes are not scheduled; correct the resource bound. *)
  let n_sched = List.length (schedulable_nodes g) in
  let cdiv a b = (a + b - 1) / b in
  let res =
    max (cdiv (max 1 n_sched) pes)
      (cdiv (Graph.mem_node_count g) mem_slots_per_cycle)
  in
  let extra = Memdep.as_edge_triples (Memdep.ordering g) in
  max res (Analysis.rec_mii_with ~extra g)

(* ----- per-map precomputation ---------------------------------------- *)

(* Everything here is a pure function of (kind, arch, graph): the same
   for all (ii, attempt) candidates of one [map] call, so it is computed
   once and shared — read-only — by every attempt, including attempts
   racing on other domains. *)
module Prep = struct
  type t = {
    kind : kind;
    arch : Cgra.t;
    graph : Graph.t;
    ordering : Memdep.t list;
        (* memory ordering constraints: timing-only edges *)
    order : int list;  (* node placement order (rank, height, asap, id) *)
    all_pes : Coord.t array;  (* row-major *)
    nbrs_self : Coord.t list array;
        (* pe index -> mesh neighbours (N/E/S/W) followed by the PE
           itself: the exact expansion list the router uses *)
    page_idx : int array;  (* pe index -> page, or -1 when unpaged *)
    boundary : bool array;
        (* pe index -> boundary-adjacent to the next page (ops with
           unplaced consumers prefer these under the spread personality) *)
    is_band : bool;  (* band-shaped pages: serpentine adjacency applies *)
    mem_ports : int;
    port_budget : int array;
        (* row -> memory-port budget: the per-(row, slot) allowance the
           bandwidth-aware cost prices against.  Uniform today
           ([mem_ports_per_row] everywhere), but kept as a table so the
           cost model already supports heterogeneous rows. *)
  }

  let make kind arch graph =
    let grid = arch.Cgra.grid in
    let pages = arch.Cgra.pages in
    let n = Grid.pe_count grid in
    let all_pes = Array.of_list (Grid.all_pes grid) in
    let nbrs_self =
      Array.map (fun pe -> Grid.neighbors grid pe @ [ pe ]) all_pes
    in
    let page_idx =
      Array.map
        (fun pe -> Option.value ~default:(-1) (Page.page_of_pe pages pe))
        all_pes
    in
    let boundary = Array.make n false in
    for p = 0 to Page.n_pages pages - 2 do
      List.iter
        (fun (a, _) -> boundary.(Grid.index grid a) <- true)
        (Page.boundary_pairs pages p)
    done;
    let order =
      let rank = Analysis.scc_topo_rank graph in
      let h = Analysis.height graph in
      let a = Analysis.asap graph in
      List.sort
        (fun v w ->
          let c = Int.compare rank.(v) rank.(w) in
          if c <> 0 then c
          else
            let c = Int.compare h.(w) h.(v) in
            if c <> 0 then c
            else
              let c = Int.compare a.(v) a.(w) in
              if c <> 0 then c else Int.compare v w)
        (schedulable_nodes graph)
    in
    {
      kind;
      arch;
      graph;
      ordering = Memdep.ordering graph;
      order;
      all_pes;
      nbrs_self;
      page_idx;
      boundary;
      is_band = not (Page.is_rect pages);
      mem_ports = arch.Cgra.mem_ports_per_row;
      port_budget = Array.make grid.Grid.rows arch.Cgra.mem_ports_per_row;
    }
end

(* ----- one scheduling attempt ---------------------------------------- *)

module Attempt = struct
  type t = {
    prep : Prep.t;
    ii : int;
    spread : bool;
        (* search personality: [false] packs operations into the fewest
           pages (maximizing the fabric left for other threads); [true]
           uses pages freely, favouring a lower II.  Restart attempts
           alternate between the two. *)
    bus : bool;
        (* bandwidth-aware personality: price row-bus pressure in the
           candidate cost, steer routing hops off port-saturated slots,
           and repair failures with a bounded memory-op spill pass.
           [false] reproduces the pre-bandwidth scheduler byte for
           byte. *)
    rng : Cgra_util.Rng.t;
    cancel : unit -> bool;
        (* polled between node placements: [true] once a better race
           candidate has won, making this attempt's outcome irrelevant *)
    debug : (unit -> string) -> unit;
        (* failure-diagnostics sink: the direct Logs emitter when running
           sequentially, a per-attempt buffer when racing *)
    placements : Mapping.placement option array;
    occupied : Bytes.t;  (* pe_index * ii + slot *)
    mem_use : int array;  (* row * ii + slot -> count *)
    row_occ : int array;
        (* row * ii + slot -> occupied PEs (ops and routing hops): how
           much of the row is left to host its remaining port budget *)
    overlay : int array;  (* generation stamps, pe_index * ii + slot *)
    mutable overlay_gen : int;
    mutable routes : Mapping.route list;
    mutable max_page_used : int;  (* -1 when none *)
    mutable spills_left : int;
  }

  let create ?(spread = false) ?(bus = false) ?(cancel = fun () -> false)
      ~debug prep ii rng =
    let n_pes = Array.length prep.Prep.all_pes in
    {
      prep;
      ii;
      spread;
      bus;
      rng;
      cancel;
      debug;
      placements = Array.make (Graph.n_nodes prep.Prep.graph) None;
      occupied = Bytes.make (n_pes * ii) '\000';
      mem_use = Array.make (prep.Prep.arch.Cgra.grid.Grid.rows * ii) 0;
      row_occ = Array.make (prep.Prep.arch.Cgra.grid.Grid.rows * ii) 0;
      overlay = Array.make (n_pes * ii) 0;
      overlay_gen = 0;
      routes = [];
      max_page_used = -1;
      spills_left = (if bus then 8 else 0);
    }

  let grid t = t.prep.Prep.arch.Cgra.grid

  let graph t = t.prep.Prep.graph

  let kind t = t.prep.Prep.kind

  let slot t time = time mod t.ii

  (* Packed single-int keys: with [slot < ii] the pair (pe index, slot)
     packs bijectively into [pe_index * ii + slot], and (row, slot) into
     [row * ii + slot] — a dense array index, no hashing in the
     placement inner loop. *)
  let occ_key t pe time = (Grid.index (grid t) pe * t.ii) + slot t time

  let mem_key t pe time = (pe.Coord.row * t.ii) + slot t time

  let base_free t pe time = Bytes.get t.occupied (occ_key t pe time) = '\000'

  let is_const t v =
    match (Graph.node (graph t) v).op with Op.Const _ -> true | _ -> false

  let page_of_idx t pe = t.prep.Prep.page_idx.(Grid.index (grid t) pe)

  (* ----- bandwidth pricing ------------------------------------------- *)

  (* Occupying (pe, time) "strands" row-bus budget when the row still has
     unspent memory ports at that slot but is running out of free PEs to
     issue them from: each such placement makes the residual bandwidth
     harder to spend later.  Only the bandwidth-aware personality pays
     this price. *)
  let port_strand t pe time =
    let k = mem_key t pe time in
    let slack = t.prep.Prep.port_budget.(pe.Coord.row) - t.mem_use.(k) in
    if slack > 0 && (grid t).Grid.cols - t.row_occ.(k) <= slack then 1 else 0

  (* Reach relation for reads: same PE or mesh neighbour; for band pages
     under paging constraints, same-page reads must additionally be
     path-consecutive so that page reversal stays legal. *)
  let read_adjacent t ~same_page a b =
    Coord.equal a b
    || Coord.adjacent a b
       &&
       if same_page && kind t = Paged && t.prep.Prep.is_band then
         abs (Grid.serp_index (grid t) a - Grid.serp_index (grid t) b) = 1
       else true

  (* Adjacency for the boundary crossing of a cross-page read. *)
  let cross_adjacent t a b =
    Coord.adjacent a b
    && ((not t.prep.Prep.is_band)
       || abs (Grid.serp_index (grid t) a - Grid.serp_index (grid t) b) = 1)

  (* Feasibility of one edge given both endpoints, with an overlay of
     tentatively routed hops.  [producer]/[consumer] are the edge's
     endpoint placements; returns the hops needed (possibly []). *)
  let edge_feasible t (e : Graph.edge) ~(producer : Mapping.placement)
      ~(consumer : Mapping.placement) =
    let read_time = consumer.time + (e.distance * t.ii) in
    let gen = t.overlay_gen in
    let free pe time =
      let k = occ_key t pe time in
      Bytes.get t.occupied k = '\000' && t.overlay.(k) <> gen
    in
    let neighbors pe = t.prep.Prep.nbrs_self.(Grid.index (grid t) pe) in
    (* Bus-aware routing: among equally short chains, prefer hops that do
       not strand port budget.  Legacy attempts pass no cost and keep the
       original (hops, time) search exactly. *)
    let hop_cost = if t.bus then Some (port_strand t) else None in
    match kind t with
    | Unconstrained ->
        Router.find ~grid:(grid t) ~ii:t.ii ~free ~allowed:(fun _ -> true)
          ~read_adjacent:(read_adjacent t ~same_page:false)
          ~neighbors ?hop_cost ~src:producer ~dst_pe:consumer.pe
          ~deadline:read_time ~max_hops:8 ()
    | Paged -> (
        match (page_of_idx t producer.pe, page_of_idx t consumer.pe) with
        | pu, pv when pu >= 0 && pv >= pu ->
            (* Values may relay forward through intermediate pages; each
               step stays in its page or crosses one boundary. *)
            let allowed pe =
              let p = page_of_idx t pe in
              p >= pu && p <= pv
            in
            let step a b =
              let pa = page_of_idx t a and pb = page_of_idx t b in
              if pa < 0 || pb < 0 then false
              else if pb = pa then read_adjacent t ~same_page:true a b
              else if pb = pa + 1 then cross_adjacent t a b
              else false
            in
            Router.find ~grid:(grid t) ~ii:t.ii ~free ~allowed ~read_adjacent:step
              ~neighbors ?hop_cost ~src:producer ~dst_pe:consumer.pe
              ~deadline:read_time
              ~max_hops:(2 * (pv - pu + 4))
              ()
        | _, _ -> None)

  (* All edges of candidate [v] at [cand] whose other endpoint is already
     placed — [preds]/[succs] are precomputed once per node in
     [place_node].  Returns the routes to commit, or None if infeasible. *)
  let edges_feasible t ~preds ~succs (cand : Mapping.placement) =
    t.overlay_gen <- t.overlay_gen + 1;
    let gen = t.overlay_gen in
    let add_overlay hops =
      List.iter
        (fun (h : Mapping.placement) -> t.overlay.(occ_key t h.pe h.time) <- gen)
        hops
    in
    let rec go_succs acc = function
      | [] -> Some acc
      | (e, pw) :: rest -> (
          match edge_feasible t e ~producer:cand ~consumer:pw with
          | None -> None
          | Some [] -> go_succs acc rest
          | Some hops ->
              add_overlay hops;
              go_succs ({ Mapping.edge = e; hops } :: acc) rest)
    in
    let rec go_preds acc = function
      | [] -> go_succs acc succs
      | (e, pu) :: rest -> (
          match edge_feasible t e ~producer:pu ~consumer:cand with
          | None -> None
          | Some [] -> go_preds acc rest
          | Some hops ->
              add_overlay hops;
              go_preds ({ Mapping.edge = e; hops } :: acc) rest)
    in
    go_preds [] preds

  let mem_ok t ~v_is_mem pe time =
    (not v_is_mem) || t.mem_use.(mem_key t pe time) < t.prep.Prep.mem_ports

  let candidate_pes t =
    let all = t.prep.Prep.all_pes in
    match kind t with
    | Unconstrained -> Array.copy all
    | Paged ->
        (* Only pages forming a contiguous prefix may be used; allow one
           fresh page beyond the current maximum. *)
        let page_idx = t.prep.Prep.page_idx in
        let keep i = page_idx.(i) >= 0 && page_idx.(i) <= t.max_page_used + 1 in
        let count = ref 0 in
        Array.iteri (fun i _ -> if keep i then incr count) all;
        let out = Array.make !count all.(0) in
        let j = ref 0 in
        Array.iteri
          (fun i pe ->
            if keep i then begin
              out.(!j) <- pe;
              incr j
            end)
          all;
        out

  let has_unplaced_consumer t v =
    List.exists
      (fun (e : Graph.edge) -> t.placements.(e.dst) = None)
      (Graph.succs (graph t) v)

  (* Bus-pressure price of a feasible candidate, the bandwidth-aware
     term of the cost tuple (0 for legacy attempts).  A memory op pays
     for the load already on its (row, slot) — steering memory traffic
     toward slack rows — plus a saturation surcharge when it would spend
     the row's last port; any placement (op or routing hop) additionally
     pays the stranding price of eating a would-be port issuer's PE. *)
  let bus_cost t ~v_is_mem (cand : Mapping.placement) routes =
    if not t.bus then 0
    else begin
      let own =
        if v_is_mem then begin
          let k = mem_key t cand.pe cand.time in
          let used = t.mem_use.(k) in
          let saturating =
            if used + 1 >= t.prep.Prep.port_budget.(cand.pe.Coord.row) then 1
            else 0
          in
          (4 * used) + (2 * saturating)
        end
        else port_strand t cand.pe cand.time
      in
      List.fold_left
        (fun acc (r : Mapping.route) ->
          List.fold_left
            (fun acc (h : Mapping.placement) -> acc + port_strand t h.pe h.time)
            acc r.hops)
        own routes
    end

  (* Cost of a feasible candidate.  Packing personality: fewer fresh
     pages and lower page index first (harvestable fabric); spreading
     personality: fewer routing hops and boundary access for ops whose
     consumers are still unplaced (lower II pressure).  The fourth
     component is the bus-pressure term — tie-break-level for legacy
     attempts (always 0 there), an active allocation signal for
     bandwidth-aware ones. *)
  let cost t v ~v_is_mem (cand : Mapping.placement) routes =
    let hops =
      List.fold_left (fun acc (r : Mapping.route) -> acc + List.length r.hops) 0 routes
    in
    let bus = bus_cost t ~v_is_mem cand routes in
    match kind t with
    | Unconstrained -> (0, 0, hops, bus, Cgra_util.Rng.int t.rng 1024)
    | Paged when t.spread ->
        let interior_penalty =
          if
            has_unplaced_consumer t v
            && not t.prep.Prep.boundary.(Grid.index (grid t) cand.pe)
          then 1
          else 0
        in
        (0, hops, interior_penalty, bus, Cgra_util.Rng.int t.rng 1024)
    | Paged ->
        let pg = max 0 (page_of_idx t cand.pe) in
        let fresh = if pg > t.max_page_used then 1 else 0 in
        (fresh, pg, hops, bus, Cgra_util.Rng.int t.rng 1024)

  let commit t v (cand : Mapping.placement) routes =
    t.placements.(v) <- Some cand;
    Bytes.set t.occupied (occ_key t cand.pe cand.time) '\001';
    let rk = mem_key t cand.pe cand.time in
    t.row_occ.(rk) <- t.row_occ.(rk) + 1;
    if Op.is_mem (Graph.node (graph t) v).op then
      t.mem_use.(rk) <- t.mem_use.(rk) + 1;
    List.iter
      (fun (r : Mapping.route) ->
        List.iter
          (fun (h : Mapping.placement) ->
            Bytes.set t.occupied (occ_key t h.pe h.time) '\001';
            let k = mem_key t h.pe h.time in
            t.row_occ.(k) <- t.row_occ.(k) + 1)
          r.hops;
        t.routes <- r :: t.routes)
      routes;
    let pg = page_of_idx t cand.pe in
    if pg >= 0 then t.max_page_used <- max t.max_page_used pg

  (* Roll node [u] back out of the schedule: its slot, bus ports, row
     occupancy, and every committed route with [u] as an endpoint.
     Returns the removed placement and routes so [recommit] can restore
     the exact state if the spill does not work out. *)
  let uncommit t u =
    match t.placements.(u) with
    | None -> None
    | Some (p : Mapping.placement) ->
        t.placements.(u) <- None;
        Bytes.set t.occupied (occ_key t p.pe p.time) '\000';
        let rk = mem_key t p.pe p.time in
        t.row_occ.(rk) <- t.row_occ.(rk) - 1;
        if Op.is_mem (Graph.node (graph t) u).op then
          t.mem_use.(rk) <- t.mem_use.(rk) - 1;
        let mine, keep =
          List.partition
            (fun (r : Mapping.route) ->
              r.edge.Graph.src = u || r.edge.Graph.dst = u)
            t.routes
        in
        List.iter
          (fun (r : Mapping.route) ->
            List.iter
              (fun (h : Mapping.placement) ->
                Bytes.set t.occupied (occ_key t h.pe h.time) '\000';
                let k = mem_key t h.pe h.time in
                t.row_occ.(k) <- t.row_occ.(k) - 1)
              r.hops)
          mine;
        t.routes <- keep;
        Some (p, mine)

  let recommit t u (p : Mapping.placement) removed_routes =
    t.placements.(u) <- Some p;
    Bytes.set t.occupied (occ_key t p.pe p.time) '\001';
    let rk = mem_key t p.pe p.time in
    t.row_occ.(rk) <- t.row_occ.(rk) + 1;
    if Op.is_mem (Graph.node (graph t) u).op then
      t.mem_use.(rk) <- t.mem_use.(rk) + 1;
    List.iter
      (fun (r : Mapping.route) ->
        List.iter
          (fun (h : Mapping.placement) ->
            Bytes.set t.occupied (occ_key t h.pe h.time) '\001';
            let k = mem_key t h.pe h.time in
            t.row_occ.(k) <- t.row_occ.(k) + 1)
          r.hops;
        t.routes <- r :: t.routes)
      removed_routes

  (* Modulo scheduling window of node [v] from its placed neighbours —
     data edges and memory ordering constraints alike. *)
  let window t v =
    let lo =
      List.fold_left
        (fun acc (e : Graph.edge) ->
          if is_const t e.src then acc
          else
            match t.placements.(e.src) with
            | Some pu -> max acc (pu.time + 1 - (e.distance * t.ii))
            | None -> acc)
        0
        (Graph.preds (graph t) v)
    in
    let lo =
      List.fold_left
        (fun acc (o : Memdep.t) ->
          if o.dst <> v then acc
          else
            match t.placements.(o.src) with
            | Some pu -> max acc (pu.time + 1 - (o.distance * t.ii))
            | None -> acc)
        lo t.prep.Prep.ordering
    in
    let hi =
      List.fold_left
        (fun acc (e : Graph.edge) ->
          match t.placements.(e.dst) with
          | Some pw -> min acc (pw.time - 1 + (e.distance * t.ii))
          | None -> acc)
        max_int
        (Graph.succs (graph t) v)
    in
    let hi =
      List.fold_left
        (fun acc (o : Memdep.t) ->
          if o.src <> v then acc
          else
            match t.placements.(o.dst) with
            | Some pw -> min acc (pw.time - 1 + (o.distance * t.ii))
            | None -> acc)
        hi t.prep.Prep.ordering
    in
    (* Resource slots repeat modulo II, so [ii] distinct times cover every
       slot — but routing deadlines are not modular: a later time buys a
       longer cross-page relay chain.  The bandwidth-aware personality
       searches a second period for exactly that reason. *)
    let span = if t.bus && kind t = Paged then 2 * t.ii else t.ii in
    (lo, min hi (lo + span - 1))

  let place_node t v =
    let lo, hi = window t v in
    if hi < lo then false
    else begin
      let pes = candidate_pes t in
      Cgra_util.Rng.shuffle t.rng pes;
      let preds =
        List.filter_map
          (fun (e : Graph.edge) ->
            if is_const t e.src then None
            else
              match t.placements.(e.src) with
              | Some pu -> Some (e, pu)
              | None -> None)
          (Graph.preds (graph t) v)
      in
      let succs =
        List.filter_map
          (fun (e : Graph.edge) ->
            match t.placements.(e.dst) with
            | Some pw -> Some (e, pw)
            | None -> None)
          (Graph.succs (graph t) v)
      in
      let v_is_mem = Op.is_mem (Graph.node (graph t) v).op in
      let rec try_time time =
        if time > hi then false
        else begin
          let best = ref None in
          Array.iter
            (fun pe ->
              let cand = { Mapping.pe; time } in
              if base_free t pe time && mem_ok t ~v_is_mem pe time then
                match edges_feasible t ~preds ~succs cand with
                | None -> ()
                | Some routes ->
                    let c = cost t v ~v_is_mem cand routes in
                    (match !best with
                    | Some (c0, _, _) when c0 <= c -> ()
                    | Some _ | None -> best := Some (c, cand, routes)))
            pes;
          match !best with
          | Some ((c1, c2, c3, c4, c5), cand, routes) ->
              commit t v cand routes;
              t.debug (fun () ->
                  Printf.sprintf
                    "%s ii=%d: node %d -> pe=(%d,%d) t=%d cost=(%d,%d,%d,%d,%d)"
                    (Graph.name (graph t))
                    t.ii v cand.pe.Coord.row cand.pe.Coord.col cand.time c1 c2
                    c3 c4 c5);
              true
          | None -> try_time (time + 1)
        end
      in
      try_time lo
    end

  (* Bounded repair for the bandwidth-aware personality: when a node has
     no feasible slot, evict a placed victim, place the stuck node, then
     find the evictee a new home (re-timed or re-rowed).  Victims are
     tried in two tiers: first the stuck node's already placed graph
     neighbours — they pin its modulo window, so moving one is the only
     cure when the window has closed — then the memory ops on the most
     port-saturated (row, slot) pairs, whose eviction returns bus budget.
     Failures restore the exact pre-spill state, so a spill can only
     turn a failing attempt into a succeeding one. *)
  let try_spill t v =
    if (not t.bus) || kind t <> Paged || t.spills_left <= 0 then false
    else begin
      let neighbours =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun (e : Graph.edge) ->
               let u = if e.src = v then e.dst else e.src in
               if u <> v && t.placements.(u) <> None && not (is_const t u)
               then Some u
               else None)
             (Graph.preds (graph t) v @ Graph.succs (graph t) v))
      in
      let mem_victims =
        List.sort
          (fun (u1, load1) (u2, load2) ->
            let c = Int.compare load2 load1 in
            if c <> 0 then c else Int.compare u1 u2)
          (List.concat_map
             (fun (n : Graph.node) ->
               if n.id = v || not (Op.is_mem n.op) || List.mem n.id neighbours
               then []
               else
                 match t.placements.(n.id) with
                 | None -> []
                 | Some p -> [ (n.id, t.mem_use.(mem_key t p.pe p.time)) ])
             (Graph.nodes (graph t)))
      in
      (* A closed modulo window (hi < lo) is pinned entirely by the
         placed neighbours: evicting a non-adjacent memory op cannot
         reopen it, so skip the second tier and save the doomed
         placement scans. *)
      let lo, hi = window t v in
      let victims =
        List.map (fun u -> (u, 0)) neighbours
        @ (if hi < lo then [] else mem_victims)
      in
      let rec go = function
        | [] -> false
        | (u, _) :: rest ->
            if t.spills_left <= 0 then false
            else begin
              t.spills_left <- t.spills_left - 1;
              match uncommit t u with
              | None -> go rest
              | Some (p, removed) ->
                  if place_node t v then begin
                    if place_node t u then begin
                      t.debug (fun () ->
                          Printf.sprintf
                            "%s ii=%d: spilled node %d to place node %d"
                            (Graph.name (graph t))
                            t.ii u v);
                      true
                    end
                    else begin
                      ignore (uncommit t v);
                      recommit t u p removed;
                      go rest
                    end
                  end
                  else begin
                    recommit t u p removed;
                    go rest
                  end
            end
      in
      go victims
    end

  let run t =
    let place v =
      let ok = place_node t v || try_spill t v in
      if not ok then
        t.debug (fun () ->
            Printf.sprintf "%s ii=%d: no slot for node %d (%s)"
              (Graph.name (graph t))
              t.ii v
              (Op.to_string (Graph.node (graph t) v).op));
      ok
    in
    let rec go = function
      | [] ->
          let m =
            {
              Mapping.arch = t.prep.Prep.arch;
              graph = graph t;
              ii = t.ii;
              placements = t.placements;
              routes = t.routes;
              paged = (kind t = Paged);
            }
          in
          (match Mapping.validate m with
          | Ok () -> Some m
          | Error es ->
              t.debug (fun () ->
                  Printf.sprintf "%s ii=%d: validation failed: %s"
                    (Graph.name (graph t))
                    t.ii (String.concat "; " es));
              None)
      | v :: rest ->
          (* a raced attempt that can no longer win abandons its work;
             its outcome is unobservable, so this cannot change results *)
          if t.cancel () then None
          else if place v then go rest
          else None
    in
    go t.prep.Prep.order
end

(* ----- the II / restart ladder --------------------------------------- *)

let debug_sink msg = Log.debug (fun m -> m "%s" (msg ()))

(* Legacy restart attempts per II. *)
let attempts = 64

let map ?(seed = 0) ?max_ii ?(bus_aware = true) ?pool
    ?(trace = Cgra_trace.Trace.null) kind arch g =
  let start = mii kind arch g in
  let max_ii = Option.value ~default:(start + 40) max_ii in
  let prep = Prep.make kind arch g in
  let launched = Atomic.make 0 in
  let polish_runs = Atomic.make 0 in
  (* With [bus_aware] each II gets two attempt families: indices
     [0, bus_n) run the bandwidth-aware cost (bus-pressure pricing,
     cost-guided routing, spill repair, a second window period), and
     [bus_n, bus_n + attempts) replay the legacy family byte-identically
     — attempt [bus_n + k] here is exactly attempt [k] of the
     pre-bandwidth scheduler (same rng seed, same personality, zero bus
     term).  Any II the legacy search could close therefore still
     closes: the resulting II is monotonically no worse, by
     construction.  The bandwidth family is capped small: measured
     winners sit in its first few indices, so a deep tail would only
     tax the IIs that fail outright. *)
  let bus_n = if bus_aware then 16 else 0 in
  let per_ii = attempts + bus_n in
  let one_attempt ?cancel ?(debug = debug_sink) ~bus ~rng_a ~spread ~ii () =
    let rng =
      Cgra_util.Rng.create
        ~seed:(((seed * 31) + (ii * 1009) + rng_a) lxor 0x5bf03635)
    in
    Attempt.run (Attempt.create ~spread ~bus ?cancel ~debug prep ii rng)
  in
  let ladder_attempt ?cancel ?debug ~ii ~a () =
    let bus = a < bus_n in
    let al = if a >= bus_n then a - bus_n else a in
    one_attempt ?cancel ?debug ~bus ~rng_a:al ~spread:(al mod 2 = 1) ~ii ()
  in
  (* The (ii, attempt) ladder, in the deterministic priority order: the
     winner is always the earliest candidate here that succeeds, whether
     the ladder is walked sequentially or raced across the pool. *)
  let candidates =
    List.concat_map
      (fun i -> List.init per_ii (fun a -> (start + i, a)))
      (List.init (max 0 (max_ii - start + 1)) Fun.id)
  in
  let n_candidates = List.length candidates in
  (* Per-attempt diagnostics must read as if the ladder ran sequentially:
     when racing, each attempt logs into its own buffer and the buffers
     of every candidate at or before the winner are flushed in ladder
     order afterwards (candidates past the winner are unreachable in a
     sequential run, so their speculative diagnostics are dropped). *)
  let debug_on =
    match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false
  in
  let scan_sequential () =
    let rec go = function
      | [] -> None
      | (ii, a) :: rest -> (
          Atomic.incr launched;
          match ladder_attempt ~ii ~a () with
          | Some m -> Some ((ii, a), m)
          | None -> go rest)
    in
    go candidates
  in
  let scan_raced p =
    let bufs = Array.make (if debug_on then n_candidates else 0) [] in
    let eval ~doomed (ii, a) =
      Atomic.incr launched;
      let logs = ref [] in
      let debug =
        if debug_on then fun msg -> logs := msg () :: !logs else debug_sink
      in
      let r = ladder_attempt ~cancel:doomed ~debug ~ii ~a () in
      if debug_on then bufs.((ii - start) * per_ii + a) <- List.rev !logs;
      r
    in
    let res = Cgra_util.Pool.race_poll p eval candidates in
    if debug_on then begin
      let last =
        match res with
        | Some ((ii, a), _) -> ((ii - start) * per_ii) + a
        | None -> n_candidates - 1
      in
      for i = 0 to last do
        List.iter (fun line -> Log.debug (fun m -> m "%s" line)) bufs.(i)
      done
    end;
    res
  in
  (* Once the minimal feasible II is found, spend a few packing-personality
     attempts reducing the page footprint at that II: unused pages are
     what the multithreading runtime harvests.  The fold keeps the
     earliest of the fewest-page results, so the parallel run (which
     always evaluates all eight) agrees with the sequential one (which
     may stop early once a single page is reached — no attempt can beat
     that). *)
  let polish_pages ii first =
    if kind <> Paged then first
    else begin
      let run_one a =
        Atomic.incr polish_runs;
        one_attempt ~bus:bus_aware ~rng_a:(1000 + a) ~spread:false ~ii ()
      in
      let better best cand =
        if Mapping.n_pages_used cand < Mapping.n_pages_used best then cand
        else best
      in
      match pool with
      | Some p when Cgra_util.Pool.width p > 1 ->
          List.fold_left
            (fun best -> function Some m -> better best m | None -> best)
            first
            (Cgra_util.Pool.map p run_one (List.init 8 Fun.id))
      | Some _ | None ->
          let rec go best a =
            if a >= 8 || Mapping.n_pages_used best = 1 then best
            else
              match run_one a with
              | Some m -> go (better best m) (a + 1)
              | None -> go best (a + 1)
          in
          go first 0
    end
  in
  Cgra_trace.Trace.with_span trace "sched.race" (fun () ->
      let res =
        match pool with
        | Some p when Cgra_util.Pool.width p > 1 -> scan_raced p
        | Some _ | None -> scan_sequential ()
      in
      let res = Option.map (fun (w, m) -> (w, polish_pages (fst w) m)) res in
      if Cgra_trace.Trace.enabled trace then begin
        let l = Atomic.get launched in
        let counter name value =
          Cgra_trace.Trace.emit trace
            (Cgra_trace.Trace.Counter { name; value = float_of_int value })
        in
        counter "sched.race.candidates" n_candidates;
        counter "sched.race.launched" l;
        counter "sched.race.cancelled" (n_candidates - l);
        counter "sched.race.polish" (Atomic.get polish_runs);
        Cgra_trace.Trace.emit trace
          (Cgra_trace.Trace.Mark
             {
               name = "sched.race.winner";
               detail =
                 (match res with
                 | Some ((ii, a), _) -> Printf.sprintf "ii=%d attempt=%d" ii a
                 | None -> "none");
             })
      end;
      match res with
      | Some (_, m) -> Ok m
      | None ->
          Error
            (Printf.sprintf "Scheduler.map: %s does not fit on %s within II %d"
               (Graph.name g)
               (Format.asprintf "%a" Cgra.pp arch)
               max_ii))
