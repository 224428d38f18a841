open Cgra_arch

type fabric = {
  coords : Coord.t array;
  row : int array;
  col : int array;
  serp : int array;
  page : int array;
  nbr_start : int array;
  nbr : int array;
  paged_out_start : int array;
  paged_out : int array;
  paged_in_start : int array;
  paged_in : int array;
  band : bool;
  cols : int;
}

let dist f a b = abs (f.row.(a) - f.row.(b)) + abs (f.col.(a) - f.col.(b))

(* Under paging, [b] may read the value held at [a]: the same PE, or a
   mesh neighbour that stays on [a]'s page (path-consecutive on band
   pages) or crosses one boundary forward.  A PE in no page reads
   nothing and is read by nothing. *)
let paged_reads f a b =
  let pa = f.page.(a) in
  pa >= 0
  && (a = b
     || (let pb = f.page.(b) in
         pb = pa || pb = pa + 1)
        && dist f a b = 1
        && ((not f.band) || abs (f.serp.(a) - f.serp.(b)) = 1))

(* Per-PE lists in one array: the list of PE [i] is [adj.(start.(i))] up
   to [adj.(start.(i + 1) - 1)]. *)
let flatten lists =
  let start = Array.make (Array.length lists + 1) 0 in
  Array.iteri (fun i l -> start.(i + 1) <- start.(i) + List.length l) lists;
  (start, Array.of_list (List.concat (Array.to_list lists)))

let fabric (arch : Cgra.t) =
  let grid = arch.Cgra.grid in
  let pages = arch.Cgra.pages in
  let coords = Array.of_list (Grid.all_pes grid) in
  let nbrs =
    Array.map
      (fun pe -> List.map (Grid.index grid) (Grid.neighbors grid pe @ [ pe ]))
      coords
  in
  let nbr_start, nbr = flatten nbrs in
  let f =
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
      nbr;
      paged_out_start = [||];
      paged_out = [||];
      paged_in_start = [||];
      paged_in = [||];
      band = not (Page.is_rect pages);
      cols = grid.Grid.cols;
    }
  in
  (* [paged_reads] only relates a PE to itself and its mesh neighbours,
     so filtering each [nbr] list keeps the push order. *)
  let paged keep = flatten (Array.mapi (fun i l -> List.filter (keep i) l) nbrs) in
  let paged_out_start, paged_out = paged (fun a b -> paged_reads f a b) in
  let paged_in_start, paged_in = paged (fun b a -> paged_reads f a b) in
  { f with paged_out_start; paged_out; paged_in_start; paged_in }

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
  mutable searches : int;
  mutable misses : int;
  buckets : int array;  (* the bucket queue of the reachability passes *)
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
    searches = 0;
    misses = 0;
    buckets = Array.make (ii + 1) (-1);
  }

let searches t = t.searches

let misses t = t.misses

let earliest_free t ~gen pe ~lower ~deadline =
  (* One full II window suffices: slots repeat modulo ii.  Returns -1
     when no slot in [lower, deadline] is free. *)
  let stop = Int.min deadline (lower + t.ii - 1) in
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

(* [reads t reach a b]: hop [b] may read the value held at [a] — the
   same PE or a mesh neighbour, restricted under paging by
   [paged_reads]. *)
let reads t reach a b =
  match reach with
  | Mesh -> a = b || dist t.fab a b = 1
  | Pages _ -> paged_reads t.fab a b

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

(* Append an entry; returns its index. *)
let new_entry t ~hops ~cost ~time pe parent =
  let e = t.n_ents in
  if stride * (e + 1) > Array.length t.ents then begin
    let a = Array.make (2 * Array.length t.ents) 0 in
    Array.blit t.ents 0 a 0 (stride * e);
    t.ents <- a
  end;
  let o = stride * e in
  t.ents.(o + e_hops) <- hops;
  t.ents.(o + e_cost) <- cost;
  t.ents.(o + e_time) <- time;
  t.ents.(o + e_pe) <- pe;
  t.ents.(o + e_parent) <- parent;
  t.n_ents <- e + 1;
  e

let reset t =
  t.stamp <- t.stamp + 1;
  t.n_ents <- 0;
  t.n_heap <- 0

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
      heap_push t (new_entry t ~hops ~cost ~time:at pe parent)
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
  let need = Int.max 1 (dist f src dst - 1) in
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
             ~lower:(src_time + Int.max 1 (dist f src pe))
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
      t.searches <- t.searches + 1;
      reset t;
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
      if Option.is_none !result then t.misses <- t.misses + 1;
      !result
    end
  end

(* ----- reachability tables ------------------------------------------- *)

(* The nearest time from [from], stepping by [step] (1: later, -1:
   earlier) for at most one II window, whose slot is free in [occupied]
   alone; -1 when there is none.  Times below 1 are never free: a
   producer finishes at time 0 or later, so every hop issues at 1 or
   later. *)
let open_slot t pe ~from ~step =
  let base = pe * t.ii in
  let found = ref (-1) and time = ref from and k = ref 0 in
  let slot = ref (if from >= 1 then from mod t.ii else 0) in
  while !found < 0 && !k < t.ii && !time >= 1 do
    if Bytes.get t.occupied (base + !slot) = '\000' then found := !time
    else begin
      time := !time + step;
      slot := !slot + step;
      if !slot = t.ii then slot := 0 else if !slot < 0 then slot := t.ii - 1;
      incr k
    end
  done;
  !found

(* One label-setting pass over the PEs along the lists [start]/[adj],
   from [pe0] holding the value at [time0], on the scratch of [find]:
   keys are [dir * time], so the forward pass ([dir] = 1) settles the
   earliest hops first and the backward one ([dir] = -1) the latest.
   [best_t] holds a PE's key under the current stamp.  Each step moves a
   key up by 1 to [ii] (the next free slot within one II window), so the
   pending keys span at most [ii + 1] values and a circular bucket queue
   pops them in order, each bucket a stack of entries chained through
   [e_parent].  [into.(b)] gets the least key of a read of [b] from a
   settled PE. *)
let pass t ~dir ~start ~adj ~pe0 ~time0 into =
  let w = t.ii + 1 in
  let bucket key = ((key mod w) + w) mod w in
  let pending = ref 0 in
  let label pe key =
    t.best_stamp.(pe) <- t.stamp;
    t.best_t.(pe) <- key;
    let e = new_entry t ~hops:0 ~cost:0 ~time:key pe t.buckets.(bucket key) in
    t.buckets.(bucket key) <- e;
    incr pending
  in
  Array.fill into 0 (Array.length into) max_int;
  Array.fill t.buckets 0 w (-1);
  reset t;
  label pe0 (dir * time0);
  let key = ref (dir * time0) in
  while !pending > 0 do
    let e = ref t.buckets.(bucket !key) in
    t.buckets.(bucket !key) <- -1;
    while !e >= 0 do
      let o = stride * !e in
      let a = t.ents.(o + e_pe) in
      decr pending;
      (* a PE relabelled since this entry was pushed was settled earlier *)
      if !key = t.best_t.(a) then
        for i = start.(a) to start.(a + 1) - 1 do
          let b = adj.(i) in
          if !key + 1 < into.(b) then into.(b) <- !key + 1;
          let time = open_slot t b ~from:(dir * (!key + 1)) ~step:dir in
          if time >= 0 then begin
            let kb = dir * time in
            if t.best_stamp.(b) <> t.stamp || kb < t.best_t.(b) then label b kb
          end
        done;
      e := t.ents.(o + e_parent)
    done;
    incr key
  done

let earliest_reads t ~paged ~src ~src_time into =
  let f = t.fab in
  let start, adj =
    if paged then (f.paged_out_start, f.paged_out) else (f.nbr_start, f.nbr)
  in
  pass t ~dir:1 ~start ~adj ~pe0:src ~time0:src_time into

let latest_departures t ~paged ~dst ~deadline into =
  let f = t.fab in
  let start, adj =
    if paged then (f.paged_in_start, f.paged_in) else (f.nbr_start, f.nbr)
  in
  (* the consumer reads at [deadline] as if it were a hop there *)
  pass t ~dir:(-1) ~start ~adj ~pe0:dst ~time0:deadline into;
  Array.iteri (fun pe key -> into.(pe) <- (if key = max_int then -1 else -key)) into
