open Cgra_arch
open Cgra_dfg

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
  let res =
    Analysis.res_mii ~pes
      ~mem_slots_per_cycle:(arch.Cgra.grid.Grid.rows * arch.Cgra.mem_ports_per_row)
      g
  in
  let extra = Memdep.as_edge_triples (Memdep.ordering g) in
  max res (Analysis.rec_mii_with ~extra g)

(* ----- per-map precomputation ---------------------------------------- *)

(* Everything here is a pure function of (kind, arch, graph): the same
   for all (ii, attempt) candidates of one [map] call, so it is computed
   once and shared — read-only — by every attempt, including attempts
   racing on other domains.  All mutable scratch lives in [Attempt]. *)
module Prep = struct
  type t = {
    kind : kind;
    arch : Cgra.t;
    graph : Graph.t;
    ord_in : Memdep.t list array;
    ord_out : Memdep.t list array;
        (* node -> memory ordering constraints (timing-only edges) into
           and out of it *)
    order : int list;  (* node placement order (rank, height, asap, id) *)
    fabric : Router.fabric;  (* per-PE tables, PEs by row-major index *)
    candidates : int array array;
        (* [max_page_used + 1] -> the row-major PEs a node may take:
           pages [0, max_page_used + 1] when paged (a contiguous prefix
           plus one fresh page).  Unconstrained has the one entry, every
           PE. *)
    boundary : bool array;
        (* pe index -> boundary-adjacent to the next page (ops with
           unplaced consumers prefer these under the spread personality) *)
    mem_ports : int;
        (* memory ports of every row's bus per slot: the budget [mem_ok]
           enforces and the bandwidth-aware cost prices against *)
  }

  let make kind arch graph =
    let grid = arch.Cgra.grid in
    let pages = arch.Cgra.pages in
    let n = Grid.pe_count grid in
    let fabric = Router.fabric arch in
    let boundary = Array.make n false in
    for p = 0 to Page.n_pages pages - 2 do
      List.iter
        (fun (a, _) -> boundary.(Grid.index grid a) <- true)
        (Page.boundary_pairs pages p)
    done;
    let candidates =
      let pes keep = Array.of_list (List.filter keep (List.init n Fun.id)) in
      match kind with
      | Unconstrained -> [| pes (fun _ -> true) |]
      | Paged ->
          Array.init
            (Page.n_pages pages + 1)
            (fun k -> pes (fun i -> fabric.page.(i) >= 0 && fabric.page.(i) <= k))
    in
    let ordering = Memdep.ordering graph in
    let ord_by key =
      Array.init (Graph.n_nodes graph) (fun v ->
          List.filter (fun (o : Memdep.t) -> key o = v) ordering)
    in
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
      ord_in = ord_by (fun o -> o.dst);
      ord_out = ord_by (fun o -> o.src);
      order;
      fabric;
      candidates;
      boundary;
      mem_ports = arch.Cgra.mem_ports_per_row;
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
    placements : Mapping.placement option array;
    occupied : Bytes.t;  (* pe_index * ii + slot *)
    mem_use : int array;  (* row * ii + slot -> count *)
    row_occ : int array;
        (* row * ii + slot -> occupied PEs (ops and routing hops): how
           much of the row is left to host its remaining port budget *)
    overlay : int array;  (* generation stamps, pe_index * ii + slot *)
    mutable overlay_gen : int;
    router : Router.t;
        (* search scratch over [occupied] and [overlay].  Bus-aware
           routing prices hops from [mem_use] and [row_occ]: among
           equally short chains it prefers hops that do not strand port
           budget, while legacy attempts keep the (hops, time) search. *)
    mutable routes : Mapping.route list;
    mutable max_page_used : int;  (* -1 when none *)
    mutable spills_left : int;
  }

  let create ?(spread = false) ?(bus = false) ?(cancel = fun () -> false) prep ii
      rng =
    let fabric = prep.Prep.fabric in
    let n_pes = Array.length fabric.Router.coords in
    let rows = prep.Prep.arch.Cgra.grid.Grid.rows in
    let occupied = Bytes.make (n_pes * ii) '\000' in
    let mem_use = Array.make (rows * ii) 0 in
    let row_occ = Array.make (rows * ii) 0 in
    let overlay = Array.make (n_pes * ii) 0 in
    let strand =
      if bus then Some { Router.mem_use; row_occ; budget = prep.Prep.mem_ports }
      else None
    in
    {
      prep;
      ii;
      spread;
      bus;
      rng;
      cancel;
      placements = Array.make (Graph.n_nodes prep.Prep.graph) None;
      occupied;
      mem_use;
      row_occ;
      overlay;
      overlay_gen = 0;
      router = Router.create fabric ~ii ~occupied ~overlay ?strand ();
      routes = [];
      max_page_used = -1;
      spills_left = (if bus then 8 else 0);
    }

  let graph t = t.prep.Prep.graph

  let kind t = t.prep.Prep.kind

  let fabric t = t.prep.Prep.fabric

  let slot t time = time mod t.ii

  (* Row-major index of a placed PE: the attempt works on indices and
     meets coordinates only in placements and route hops. *)
  let index t (pe : Coord.t) = (pe.row * (fabric t).Router.cols) + pe.col

  (* Packed single-int keys: with [slot < ii] the pair (pe index, slot)
     packs bijectively into [pe_index * ii + slot], and (row, slot) into
     [row * ii + slot] — a dense array index, no hashing in the
     placement inner loop. *)
  let occ_key t pe time = (pe * t.ii) + slot t time

  let mem_key t row time = (row * t.ii) + slot t time

  let is_const t v =
    match (Graph.node (graph t) v).op with Op.Const _ -> true | _ -> false

  (* The hops of one edge from PE [src] (value ready at [src_time]) to PE
     [dst] (issuing at [dst_time]), around the committed schedule and the
     candidate's tentatively routed hops; [Some []] when [dst] reads
     [src] directly. *)
  let edge_route t (e : Graph.edge) ~src ~src_time ~dst ~dst_time =
    let deadline = dst_time + (e.distance * t.ii) in
    let gen = t.overlay_gen in
    match kind t with
    | Unconstrained ->
        Router.find t.router ~gen Mesh ~src ~src_time ~dst ~deadline ~max_hops:8
    | Paged ->
        (* Values may relay forward through intermediate pages; each
           step stays in its page or crosses one boundary. *)
        let page = (fabric t).Router.page in
        let pu = page.(src) and pv = page.(dst) in
        if pu >= 0 && pv >= pu then
          Router.find t.router ~gen
            (Pages { first = pu; last = pv })
            ~src ~src_time ~dst ~deadline
            ~max_hops:(2 * (pv - pu + 4))
        else None

  let add_overlay t hops =
    List.iter
      (fun (h : Mapping.placement) ->
        t.overlay.(occ_key t (index t h.pe) h.time) <- t.overlay_gen)
      hops

  (* All edges of candidate [v] at ([pe], [time]) whose other endpoint is
     already placed — [preds]/[succs] hold (edge, PE index, time) of that
     endpoint and are precomputed once per node in [place_node].  Returns
     the routes to commit, or None if infeasible. *)
  let rec succ_routes t pe time acc = function
    | [] -> Some acc
    | (e, pw, tw) :: rest -> (
        match edge_route t e ~src:pe ~src_time:time ~dst:pw ~dst_time:tw with
        | None -> None
        | Some [] -> succ_routes t pe time acc rest
        | Some hops ->
            add_overlay t hops;
            succ_routes t pe time ({ Mapping.edge = e; hops } :: acc) rest)

  let rec pred_routes t pe time ~succs acc = function
    | [] -> succ_routes t pe time acc succs
    | (e, pu, tu) :: rest -> (
        match edge_route t e ~src:pu ~src_time:tu ~dst:pe ~dst_time:time with
        | None -> None
        | Some [] -> pred_routes t pe time ~succs acc rest
        | Some hops ->
            add_overlay t hops;
            pred_routes t pe time ~succs ({ Mapping.edge = e; hops } :: acc) rest)

  let edges_feasible t ~preds ~succs pe time =
    t.overlay_gen <- t.overlay_gen + 1;
    pred_routes t pe time ~succs [] preds

  (* Per-PE issue-time bounds from the reachability tables of [v]'s
     placed-neighbour edges ([preds]/[succs] as in [place_node]): a probe
     ([pe], [time]) outside [earliest.(pe), latest.(pe)] has an edge that
     no chain over [occupied] can route, so [edges_feasible] would return
     None for it ({!Router.earliest_reads}). *)
  let reach_bounds t ~preds ~succs =
    let n = Array.length (fabric t).Router.coords in
    let paged = kind t = Paged in
    let table = Array.make n 0 in
    let earliest = Array.make n min_int and latest = Array.make n max_int in
    List.iter
      (fun ((e : Graph.edge), pu, tu) ->
        Router.earliest_reads t.router ~paged ~src:pu ~src_time:tu table;
        (* [v] at [time] reads at [time + distance * ii] *)
        let slack = e.distance * t.ii in
        for pe = 0 to n - 1 do
          earliest.(pe) <- Int.max earliest.(pe) (table.(pe) - slack)
        done)
      preds;
    List.iter
      (fun ((e : Graph.edge), pw, tw) ->
        Router.latest_departures t.router ~paged ~dst:pw
          ~deadline:(tw + (e.distance * t.ii))
          table;
        for pe = 0 to n - 1 do
          latest.(pe) <- Int.min latest.(pe) table.(pe)
        done)
      succs;
    (earliest, latest)

  let base_free t pe time = Bytes.get t.occupied (occ_key t pe time) = '\000'

  let mem_ok t ~v_is_mem pe time =
    (not v_is_mem)
    || t.mem_use.(mem_key t (fabric t).Router.row.(pe) time) < t.prep.Prep.mem_ports

  (* Only pages forming a contiguous prefix may be used; allow one fresh
     page beyond the current maximum.  A fresh copy: [place_node]
     shuffles it. *)
  let candidate_pes t =
    let c = t.prep.Prep.candidates in
    Array.copy c.(min (t.max_page_used + 1) (Array.length c - 1))

  let has_unplaced_consumer t v =
    List.exists
      (fun (e : Graph.edge) -> t.placements.(e.dst) = None)
      (Graph.succs (graph t) v)

  (* ----- bandwidth pricing ------------------------------------------- *)

  (* Bus-pressure price of a feasible candidate, the bandwidth-aware
     term of the cost tuple (0 for legacy attempts).  A memory op pays
     for the load already on its (row, slot) — steering memory traffic
     toward slack rows — plus a saturation surcharge when it would spend
     the row's last port; any placement (op or routing hop) additionally
     pays the stranding price of eating a would-be port issuer's PE.
     Occupying (pe, time) "strands" row-bus budget when the row still has
     unspent memory ports at that slot but is running out of free PEs to
     issue them from: each such placement makes the residual bandwidth
     harder to spend later ([Router.strand_price]). *)
  let bus_cost t ~v_is_mem pe time routes =
    if not t.bus then 0
    else begin
      let own =
        if v_is_mem then begin
          let row = (fabric t).Router.row.(pe) in
          let used = t.mem_use.(mem_key t row time) in
          let saturating = if used + 1 >= t.prep.Prep.mem_ports then 1 else 0 in
          (4 * used) + (2 * saturating)
        end
        else Router.strand_price t.router pe time
      in
      List.fold_left
        (fun acc (r : Mapping.route) ->
          List.fold_left
            (fun acc (h : Mapping.placement) ->
              acc + Router.strand_price t.router (index t h.pe) h.time)
            acc r.hops)
        own routes
    end

  (* Cost of a feasible candidate.  Packing personality: fewer fresh
     pages and lower page index first (harvestable fabric); spreading
     personality: fewer routing hops and boundary access for ops whose
     consumers are still unplaced (lower II pressure).  The fourth
     component is the bus-pressure term — tie-break-level for legacy
     attempts (always 0 there), an active allocation signal for
     bandwidth-aware ones.  [unplaced_consumer] is
     [has_unplaced_consumer t v], fixed while [v]'s candidates are
     probed. *)
  let cost t ~unplaced_consumer ~v_is_mem pe time routes =
    let hops =
      List.fold_left (fun acc (r : Mapping.route) -> acc + List.length r.hops) 0 routes
    in
    let bus = bus_cost t ~v_is_mem pe time routes in
    match kind t with
    | Unconstrained -> (0, 0, hops, bus, Cgra_util.Rng.int t.rng 1024)
    | Paged when t.spread ->
        let interior_penalty =
          if unplaced_consumer && not t.prep.Prep.boundary.(pe) then 1 else 0
        in
        (0, hops, interior_penalty, bus, Cgra_util.Rng.int t.rng 1024)
    | Paged ->
        let pg = Int.max 0 (fabric t).Router.page.(pe) in
        let fresh = if pg > t.max_page_used then 1 else 0 in
        (fresh, pg, hops, bus, Cgra_util.Rng.int t.rng 1024)

  (* Lexicographic order on cost tuples, compared as ints. *)
  let cost_lt ((a1, a2, a3, a4, a5) : int * int * int * int * int)
      (b1, b2, b3, b4, b5) =
    a1 < b1
    || a1 = b1
       && (a2 < b2
          || a2 = b2
             && (a3 < b3 || (a3 = b3 && (a4 < b4 || (a4 = b4 && a5 < b5)))))

  let add_hops t delta hops =
    List.iter
      (fun (h : Mapping.placement) ->
        Bytes.set t.occupied
          (occ_key t (index t h.pe) h.time)
          (if delta > 0 then '\001' else '\000');
        let k = mem_key t h.pe.Coord.row h.time in
        t.row_occ.(k) <- t.row_occ.(k) + delta)
      hops

  (* Take ([delta] = 1) or free ([delta] = -1) node [v]'s slot and bus
     port at [p]. *)
  let occupy t v delta (p : Mapping.placement) =
    Bytes.set t.occupied
      (occ_key t (index t p.pe) p.time)
      (if delta > 0 then '\001' else '\000');
    let rk = mem_key t p.pe.Coord.row p.time in
    t.row_occ.(rk) <- t.row_occ.(rk) + delta;
    if Op.is_mem (Graph.node (graph t) v).op then
      t.mem_use.(rk) <- t.mem_use.(rk) + delta

  let commit t v (cand : Mapping.placement) routes =
    t.placements.(v) <- Some cand;
    occupy t v 1 cand;
    List.iter
      (fun (r : Mapping.route) ->
        add_hops t 1 r.hops;
        t.routes <- r :: t.routes)
      routes;
    let pg = (fabric t).Router.page.(index t cand.pe) in
    if pg >= 0 then t.max_page_used <- max t.max_page_used pg

  (* Roll node [u] back out of the schedule: its slot, bus ports, row
     occupancy, and every committed route with [u] as an endpoint.
     Returns the removed placement and routes so [commit] can put them
     back if the spill does not work out.  [max_page_used] is left as
     it is, so it may stay above every page still in use, see
     [try_spill]. *)
  let uncommit t u =
    match t.placements.(u) with
    | None -> None
    | Some (p : Mapping.placement) ->
        t.placements.(u) <- None;
        occupy t u (-1) p;
        let mine, keep =
          List.partition
            (fun (r : Mapping.route) ->
              r.edge.Graph.src = u || r.edge.Graph.dst = u)
            t.routes
        in
        List.iter (fun (r : Mapping.route) -> add_hops t (-1) r.hops) mine;
        t.routes <- keep;
        Some (p, mine)

  (* Modulo scheduling window of node [v] from its placed neighbours —
     data edges and memory ordering constraints alike. *)
  let window t v =
    let from_pred acc src distance =
      match t.placements.(src) with
      | Some (pu : Mapping.placement) -> max acc (pu.time + 1 - (distance * t.ii))
      | None -> acc
    in
    let to_succ acc dst distance =
      match t.placements.(dst) with
      | Some (pw : Mapping.placement) -> min acc (pw.time - 1 + (distance * t.ii))
      | None -> acc
    in
    let lo =
      List.fold_left
        (fun acc (e : Graph.edge) ->
          if is_const t e.src then acc else from_pred acc e.src e.distance)
        0
        (Graph.preds (graph t) v)
    in
    let lo =
      List.fold_left
        (fun acc (o : Memdep.t) -> from_pred acc o.src o.distance)
        lo t.prep.Prep.ord_in.(v)
    in
    let hi =
      List.fold_left
        (fun acc (e : Graph.edge) -> to_succ acc e.dst e.distance)
        max_int
        (Graph.succs (graph t) v)
    in
    let hi =
      List.fold_left
        (fun acc (o : Memdep.t) -> to_succ acc o.dst o.distance)
        hi t.prep.Prep.ord_out.(v)
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
              | Some pu -> Some (e, index t pu.pe, pu.time)
              | None -> None)
          (Graph.preds (graph t) v)
      in
      let succs =
        List.filter_map
          (fun (e : Graph.edge) ->
            match t.placements.(e.dst) with
            | Some pw -> Some (e, index t pw.pe, pw.time)
            | None -> None)
          (Graph.succs (graph t) v)
      in
      let v_is_mem = Op.is_mem (Graph.node (graph t) v).op in
      let unplaced_consumer = has_unplaced_consumer t v in
      (* [occupied] holds still until the commit below, so the bounds
         stay exact for the whole call.  They are built at the first
         probe whose best-first search comes up empty, not at the first
         probe that fails: most failing probes fail a cheap precheck in
         calls that go on to place [v], where the tables would be wasted
         work.  After a failed search, the rest of the call's probes
         mostly cannot route either. *)
      let bounds = ref None in
      let misses = Router.misses t.router in
      let reachable pe time =
        match !bounds with
        | None -> true
        | Some (earliest, latest) -> earliest.(pe) <= time && time <= latest.(pe)
      in
      let rec try_time time =
        if time > hi then false
        else begin
          let best = ref None in
          for i = 0 to Array.length pes - 1 do
            let pe = pes.(i) in
            if base_free t pe time && mem_ok t ~v_is_mem pe time && reachable pe time
            then
              match edges_feasible t ~preds ~succs pe time with
              | None ->
                  if Option.is_none !bounds && Router.misses t.router <> misses then
                    bounds := Some (reach_bounds t ~preds ~succs)
              | Some routes -> (
                  let c = cost t ~unplaced_consumer ~v_is_mem pe time routes in
                  match !best with
                  | Some (c0, _, _) when not (cost_lt c c0) -> ()
                  | Some _ | None -> best := Some (c, pe, routes))
          done;
          match !best with
          | Some (_, pe, routes) ->
              commit t v { Mapping.pe = (fabric t).Router.coords.(pe); time } routes;
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
     A failed spill puts back every placement, route, slot and port
     count, but not [max_page_used]: when the stuck node took a fresh
     page and the evictee then found no home, that page stays counted,
     so later placements may take one page more and price a fresh page
     against the raised count.  Restoring it changes the Fig. 8 grid
     mappings, so it waits until the pinned digests are next
     re-recorded. *)
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
      (* Built only when the second tier runs; a failed spill puts back
         every placement and port count, so the loads read here are the
         ones at entry. *)
      let mem_victims () =
        List.map fst
          (List.sort
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
                    | Some p ->
                        [ (n.id, t.mem_use.(mem_key t p.pe.Coord.row p.time)) ])
                (Graph.nodes (graph t))))
      in
      (* A closed modulo window (hi < lo) is pinned entirely by the
         placed neighbours: evicting a non-adjacent memory op cannot
         reopen it, so skip the second tier and save the doomed
         placement scans. *)
      let lo, hi = window t v in
      let rec go = function
        | [] -> false
        | u :: rest ->
            if t.spills_left <= 0 then false
            else begin
              t.spills_left <- t.spills_left - 1;
              match uncommit t u with
              | None -> go rest
              | Some (p, removed) ->
                  if place_node t v then begin
                    if place_node t u then true
                    else begin
                      ignore (uncommit t v);
                      commit t u p removed;
                      go rest
                    end
                  end
                  else begin
                    commit t u p removed;
                    go rest
                  end
            end
      in
      go neighbours || (hi >= lo && t.spills_left > 0 && go (mem_victims ()))
    end

  (* [Refused]: every node found a slot, but [Mapping.validate] rejected
     the schedule.  For an unconstrained attempt it is the only outcome
     the register file can change. *)
  type outcome = Mapped of Mapping.t | Refused | Failed

  let run t =
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
          (match Mapping.validate m with Ok () -> Mapped m | Error _ -> Refused)
      | v :: rest ->
          (* a raced attempt that can no longer win abandons its work;
             its outcome is unobservable, so this cannot change results *)
          if t.cancel () then Failed
          else if place_node t v || try_spill t v then go rest
          else Failed
    in
    go t.prep.Prep.order
end

(* ----- shared unconstrained searches --------------------------------- *)

(* Everything an unconstrained search reads.  Pages reach none of its
   decisions: [Prep], [Attempt] and [Router] consult [fabric.page],
   [boundary] and [max_page_used] only in Paged branches ([commit] raises
   [max_page_used] in every attempt, but an unconstrained attempt has a
   single candidate set and never reads it).  The register file reaches
   the search only through the [Mapping.validate] that closes each
   attempt.  [max_ii] is the ladder's effective top. *)
type shared_key = {
  rows : int;
  cols : int;
  mem_ports : int;
  graph : Graph.t;
  seed : int;
  max_ii : int;
  bus_aware : bool;
}

(* The winning (ii, attempt) and mapping of each stored search.  A search
   is stored only when [Mapping.validate] refused no attempt below its
   winner: each of those then failed to place a node, whatever the pages
   and the register file, so under any arch with the same key a fresh
   search stops at the stored winner exactly when that arch accepts it.
   A search whose winner an arch refuses had a refusal below its own
   winner, so an entry, once stored, never changes. *)
let shared : (shared_key, (int * int) * Mapping.t) Hashtbl.t = Hashtbl.create 64

let shared_lock = Mutex.create ()

let clear_shared () = Mutex.protect shared_lock (fun () -> Hashtbl.reset shared)

(* The stored winner for [key] as a mapping of [g] on [arch], if [arch]
   accepts it.  Each caller gets its own placements array. *)
let find_shared key arch g =
  match Mutex.protect shared_lock (fun () -> Hashtbl.find_opt shared key) with
  | None -> None
  | Some (winner, (m : Mapping.t)) -> (
      let m = { m with arch; graph = g; placements = Array.copy m.placements } in
      match Mapping.validate m with Ok () -> Some (winner, m) | Error _ -> None)

let store_shared key winner (m : Mapping.t) =
  let m = { m with placements = Array.copy m.placements } in
  Mutex.protect shared_lock (fun () -> Hashtbl.replace shared key (winner, m))

(* ----- the II / restart ladder --------------------------------------- *)

(* Legacy restart attempts per II. *)
let attempts = 64

let winner_detail (ii, a) = Printf.sprintf "ii=%d attempt=%d" ii a

(* One [map] call's walk up the (II, attempt) ladder from [start];
   [key] is [Some] for an unconstrained call, whose result is stored
   when it may be shared. *)
let search ~seed ~start ~max_ii ~bus_aware ?pool ~trace ~key kind arch g =
  let prep = Prep.make kind arch g in
  (* A one-domain pool spawns no domain, so it needs no shutdown; on it
     [race_poll] claims a level's attempts in order and starts none past
     the winner. *)
  let pool =
    match pool with Some p -> p | None -> Cgra_util.Pool.create ~domains:1 ()
  in
  let launched = Atomic.make 0 in
  let polish_runs = Atomic.make 0 in
  (* best-first routing searches ({!Router.searches}) summed over every
     attempt this call ran, polish included *)
  let searches = Atomic.make 0 in
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
  let position (ii, a) = ((ii - start) * per_ii) + a in
  (* The earliest ladder position [Mapping.validate] refused, [max_int]
     when none.  Every position below the winner runs to completion at
     any pool width, so whether one of them was refused does not depend
     on the width. *)
  let first_refused = Atomic.make max_int in
  let rec note_refused pos =
    let cur = Atomic.get first_refused in
    if pos < cur && not (Atomic.compare_and_set first_refused cur pos) then
      note_refused pos
  in
  let one_attempt ?cancel ~bus ~rng_a ~spread ~ii () =
    let rng =
      Cgra_util.Rng.create
        ~seed:(((seed * 31) + (ii * 1009) + rng_a) lxor 0x5bf03635)
    in
    let a = Attempt.create ~spread ~bus ?cancel prep ii rng in
    let r = Attempt.run a in
    ignore (Atomic.fetch_and_add searches (Router.searches a.Attempt.router));
    r
  in
  let indices n = List.init n Fun.id in
  let level = indices per_ii in
  let eval ii ~doomed a =
    Atomic.incr launched;
    let bus = a < bus_n in
    let al = if bus then a else a - bus_n in
    match one_attempt ~cancel:doomed ~bus ~rng_a:al ~spread:(al mod 2 = 1) ~ii () with
    | Attempt.Mapped m -> Some m
    | Refused ->
        note_refused (position (ii, a));
        None
    | Failed -> None
  in
  (* The ladder in its deterministic priority order, one II level at a
     time: each level's attempts are raced, and the walk moves up only
     when none of them succeeds, so the winner is the earliest (ii,
     attempt) that succeeds at any pool width. *)
  let rec climb ii =
    if ii > max_ii then None
    else
      match Cgra_util.Pool.race_poll pool (eval ii) level with
      | Some (a, m) -> Some ((ii, a), m)
      | None -> climb (ii + 1)
  in
  (* Once the minimal feasible II is found, spend up to eight
     packing-personality attempts reducing the page footprint at that II:
     unused pages are what the multithreading runtime harvests.  A
     single-page result ends the race (no attempt can beat it); otherwise
     the earliest of the fewest-page results is kept. *)
  let polish_pages ii first =
    if kind <> Paged || Mapping.n_pages_used first = 1 then first
    else begin
      let found = Array.make 8 None in
      let run_one ~doomed a =
        Atomic.incr polish_runs;
        match
          one_attempt ~cancel:doomed ~bus:bus_aware ~rng_a:(1000 + a) ~spread:false ~ii ()
        with
        | Attempt.Mapped m when Mapping.n_pages_used m = 1 -> Some m
        | Attempt.Mapped m ->
            found.(a) <- Some m;
            None
        | Refused | Failed -> None
      in
      let better best = function
        | Some m when Mapping.n_pages_used m < Mapping.n_pages_used best -> m
        | Some _ | None -> best
      in
      match Cgra_util.Pool.race_poll pool run_one (indices 8) with
      | Some (_, m) -> m
      | None -> Array.fold_left better first found
    end
  in
  Cgra_trace.Trace.with_span trace "sched.race" (fun () ->
      let res = climb start in
      let res = Option.map (fun (w, m) -> (w, polish_pages (fst w) m)) res in
      (match (key, res) with
      | Some key, Some (w, m) when position w < Atomic.get first_refused ->
          store_shared key w m
      | _ -> ());
      if Cgra_trace.Trace.enabled trace then begin
        let l = Atomic.get launched in
        let counter name value =
          Cgra_trace.Trace.emit trace
            (Cgra_trace.Trace.Counter { name; value = float_of_int value })
        in
        let candidates = max 0 (max_ii - start + 1) * per_ii in
        counter "sched.race.candidates" candidates;
        counter "sched.race.launched" l;
        counter "sched.race.searches" (Atomic.get searches);
        counter "sched.race.cancelled" (candidates - l);
        counter "sched.race.polish" (Atomic.get polish_runs);
        Cgra_trace.Trace.emit trace
          (Cgra_trace.Trace.Mark
             {
               name = "sched.race.winner";
               detail =
                 (match res with Some (w, _) -> winner_detail w | None -> "none");
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

let map ?(seed = 0) ?max_ii ?(bus_aware = true) ?pool
    ?(trace = Cgra_trace.Trace.null) kind arch g =
  let start = mii kind arch g in
  let max_ii = Option.value ~default:(start + 40) max_ii in
  let key =
    match kind with
    | Paged -> None
    | Unconstrained ->
        let grid = arch.Cgra.grid in
        Some
          {
            rows = grid.Grid.rows;
            cols = grid.Grid.cols;
            mem_ports = arch.Cgra.mem_ports_per_row;
            graph = g;
            seed;
            max_ii;
            bus_aware;
          }
  in
  match Option.bind key (fun key -> find_shared key arch g) with
  | Some (winner, m) ->
      (* no search runs, so there is no race span and no counter *)
      if Cgra_trace.Trace.enabled trace then
        Cgra_trace.Trace.emit trace
          (Cgra_trace.Trace.Mark
             { name = "sched.race.shared"; detail = winner_detail winner });
      Ok m
  | None -> search ~seed ~start ~max_ii ~bus_aware ?pool ~trace ~key kind arch g
