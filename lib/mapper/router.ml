open Cgra_arch

type fabric = {
  coords : Coord.t array;
  row : int array;
  col : int array;
  serp : int array;
  page : int array;
  nbr_start : int array;
  nbr : int array;
  band : bool;
  cols : int;
}

let fabric (arch : Cgra.t) =
  let grid = arch.Cgra.grid in
  let pages = arch.Cgra.pages in
  let coords = Array.of_list (Grid.all_pes grid) in
  let n = Array.length coords in
  let nbrs =
    Array.map
      (fun pe -> List.map (Grid.index grid) (Grid.neighbors grid pe @ [ pe ]))
      coords
  in
  let nbr_start = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> nbr_start.(i + 1) <- nbr_start.(i) + List.length l) nbrs;
  {
    coords;
    row = Array.map (fun (pe : Coord.t) -> pe.row) coords;
    col = Array.map (fun (pe : Coord.t) -> pe.col) coords;
    serp = Array.map (Grid.serp_index grid) coords;
    page =
      Array.map
        (fun pe -> Option.value ~default:(-1) (Page.page_of_pe pages pe))
        coords;
    nbr_start;
    nbr = Array.of_list (List.concat (Array.to_list nbrs));
    band = not (Page.is_rect pages);
    cols = grid.Grid.cols;
  }

type reach = Mesh | Pages of { first : int; last : int }

(* An entry is one pushed hop: five ints at [stride * e] in [ents]. *)
let stride = 5

let e_hops = 0

let e_cost = 1

let e_time = 2

let e_pe = 3

let e_parent = 4

type strand = { mem_use : int array; row_occ : int array; budget : int }

type t = {
  fab : fabric;
  ii : int;
  occupied : Bytes.t;
  overlay : int array;
  strand : strand option;
  best_stamp : int array;
  best_h : int array;
  best_c : int array;
  best_t : int array;
  mutable stamp : int;
  mutable ents : int array;
  mutable n_ents : int;
  mutable heap : int array;  (* entry indices, a binary min-heap *)
  mutable n_heap : int;
}

let create fab ~ii ~occupied ~overlay ?strand () =
  let n = Array.length fab.coords in
  {
    fab;
    ii;
    occupied;
    overlay;
    strand;
    best_stamp = Array.make n 0;
    best_h = Array.make n 0;
    best_c = Array.make n 0;
    best_t = Array.make n 0;
    stamp = 0;
    (* small enough for the minor heap: one scratch per attempt *)
    ents = Array.make (stride * 32) 0;
    n_ents = 0;
    heap = Array.make 32 0;
    n_heap = 0;
  }

let earliest_free t ~gen pe ~lower ~deadline =
  (* One full II window suffices: slots repeat modulo ii.  Returns -1
     when no slot in [lower, deadline] is free. *)
  let stop = min deadline (lower + t.ii - 1) in
  let base = pe * t.ii in
  let slot = ref (lower mod t.ii) in
  let time = ref lower in
  let found = ref (-1) in
  while !found < 0 && !time <= stop do
    let k = base + !slot in
    if Bytes.get t.occupied k = '\000' && t.overlay.(k) <> gen then
      found := !time
    else begin
      incr time;
      incr slot;
      if !slot = t.ii then slot := 0
    end
  done;
  !found

let dist f a b = abs (f.row.(a) - f.row.(b)) + abs (f.col.(a) - f.col.(b))

(* [reads t reach a b]: hop [b] may read the value held at [a] — the
   same PE or a mesh neighbour; under paging, [b] stays on [a]'s page
   (path-consecutive on band pages) or crosses one boundary forward. *)
let reads t reach a b =
  let f = t.fab in
  match reach with
  | Mesh -> a = b || dist f a b = 1
  | Pages _ ->
      let pa = f.page.(a) in
      pa >= 0
      && (a = b
         || (let pb = f.page.(b) in
             pb = pa || pb = pa + 1)
            && dist f a b = 1
            && ((not f.band) || abs (f.serp.(a) - f.serp.(b)) = 1))

let allowed t reach pe =
  match reach with
  | Mesh -> true
  | Pages { first; last } ->
      let p = t.fab.page.(pe) in
      p >= first && p <= last

(* ----- the search heap, ordered by (hops, cost, time, push order) ----- *)

let less ents a b =
  let oa = stride * a and ob = stride * b in
  let ha = ents.(oa + e_hops) and hb = ents.(ob + e_hops) in
  ha < hb
  || ha = hb
     &&
     let ca = ents.(oa + e_cost) and cb = ents.(ob + e_cost) in
     ca < cb
     || ca = cb
        &&
        let ta = ents.(oa + e_time) and tb = ents.(ob + e_time) in
        ta < tb || (ta = tb && a < b)

let heap_push t e =
  if t.n_heap = Array.length t.heap then begin
    let h = Array.make (2 * t.n_heap) 0 in
    Array.blit t.heap 0 h 0 t.n_heap;
    t.heap <- h
  end;
  let heap = t.heap and ents = t.ents in
  let i = ref t.n_heap in
  t.n_heap <- t.n_heap + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less ents e heap.(parent) then begin
      heap.(!i) <- heap.(parent);
      i := parent
    end
    else continue := false
  done;
  heap.(!i) <- e

let heap_pop t =
  let heap = t.heap and ents = t.ents in
  let top = heap.(0) in
  t.n_heap <- t.n_heap - 1;
  let n = t.n_heap in
  if n > 0 then begin
    let last = heap.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && less ents heap.(l + 1) heap.(l) then l + 1 else l in
        if less ents heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last
  end;
  top

(* ----- best-first search --------------------------------------------- *)

let strand_price t pe time =
  match t.strand with
  | None -> 0
  | Some s ->
      let r = t.fab.row.(pe) in
      let k = (r * t.ii) + (time mod t.ii) in
      let slack = s.budget - s.mem_use.(k) in
      if slack > 0 && t.fab.cols - s.row_occ.(k) <= slack then 1 else 0

(* Offer [pe] as a hop reached at [hops] with [cost] so far, no earlier
   than [time]; it takes its earliest free slot up to [last]. *)
let push t ~gen ~last ~hops ~cost ~time pe parent =
  let at = earliest_free t ~gen pe ~lower:time ~deadline:last in
  if at >= 0 then begin
    let cost = cost + strand_price t pe at in
    if
      t.best_stamp.(pe) <> t.stamp
      || hops < t.best_h.(pe)
      || hops = t.best_h.(pe)
         && (cost < t.best_c.(pe) || (cost = t.best_c.(pe) && at < t.best_t.(pe)))
    then begin
      t.best_stamp.(pe) <- t.stamp;
      t.best_h.(pe) <- hops;
      t.best_c.(pe) <- cost;
      t.best_t.(pe) <- at;
      let e = t.n_ents in
      if stride * (e + 1) > Array.length t.ents then begin
        let a = Array.make (2 * Array.length t.ents) 0 in
        Array.blit t.ents 0 a 0 (stride * e);
        t.ents <- a
      end;
      let o = stride * e in
      t.ents.(o + e_hops) <- hops;
      t.ents.(o + e_cost) <- cost;
      t.ents.(o + e_time) <- at;
      t.ents.(o + e_pe) <- pe;
      t.ents.(o + e_parent) <- parent;
      t.n_ents <- e + 1;
      heap_push t e
    end
  end

let chain t e =
  let rec go acc e =
    if e < 0 then acc
    else
      let o = stride * e in
      go
        ({ Mapping.pe = t.fab.coords.(t.ents.(o + e_pe)); time = t.ents.(o + e_time) }
        :: acc)
        t.ents.(o + e_parent)
  in
  go [] e

let find t ~gen reach ~src ~src_time ~dst ~deadline ~max_hops =
  let f = t.fab in
  (* Infeasibility prechecks: each hop is one mesh move and one cycle,
     and the final hop must sit on or next to [dst], so a chain needs at
     least [max 1 (manhattan - 1)] hops and as many cycles before the
     [deadline] read.  The scheduler probes many (PE, time) candidates
     whose edges cannot route; rejecting those without expanding the
     best-first frontier is cheaper than the exhausted search. *)
  let need = max 1 (dist f src dst - 1) in
  if reads t reach src dst && deadline >= src_time + 1 then Some []
  else if need > max_hops || deadline < src_time + need + 1 then None
  else begin
    (* The final hop must be an allowed PE that [dst] reads, with a free
       slot late enough to be reached (one cycle per unit of distance
       from [src], at least one hop) and early enough to be read by
       [deadline]. *)
    let last_hop = ref false in
    let i = ref f.nbr_start.(dst) in
    while (not !last_hop) && !i < f.nbr_start.(dst + 1) do
      let pe = f.nbr.(!i) in
      if
        allowed t reach pe && reads t reach pe dst
        && earliest_free t ~gen pe
             ~lower:(src_time + max 1 (dist f src pe))
             ~deadline:(deadline - 1)
           >= 0
      then last_hop := true;
      incr i
    done;
    if not !last_hop then None
    else begin
      (* Best-first over (hops, accumulated hop cost, arrival time, push
         order); each entry records its parent for the chain.  Without a
         strand price every cost is 0 and the order is (hops, time). *)
      t.stamp <- t.stamp + 1;
      t.n_ents <- 0;
      t.n_heap <- 0;
      let last = deadline - 1 in
      for i = f.nbr_start.(src) to f.nbr_start.(src + 1) - 1 do
        let pe = f.nbr.(i) in
        if allowed t reach pe && reads t reach src pe then
          push t ~gen ~last ~hops:1 ~cost:0 ~time:(src_time + 1) pe (-1)
      done;
      let result = ref None in
      while Option.is_none !result && t.n_heap > 0 do
        let e = heap_pop t in
        let o = stride * e in
        let pe = t.ents.(o + e_pe) and time = t.ents.(o + e_time) in
        let hops = t.ents.(o + e_hops) in
        if reads t reach pe dst && deadline >= time + 1 then
          result := Some (chain t e)
        else if hops < max_hops then begin
          let cost = t.ents.(o + e_cost) in
          for i = f.nbr_start.(pe) to f.nbr_start.(pe + 1) - 1 do
            let pe' = f.nbr.(i) in
            if allowed t reach pe' && reads t reach pe pe' then
              push t ~gen ~last ~hops:(hops + 1) ~cost ~time:(time + 1) pe' e
          done
        end
      done;
      !result
    end
  end
