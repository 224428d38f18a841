let res_mii ~pes ~mem_slots_per_cycle g =
  if pes <= 0 then invalid_arg "Analysis.res_mii: pes must be positive";
  (* A constant is an operand, not an operation: no PE runs a Const. *)
  let ops =
    List.length
      (List.filter
         (fun (n : Graph.node) ->
           match n.op with Op.Const _ -> false | _ -> true)
         (Graph.nodes g))
  in
  let cdiv a b = (a + b - 1) / b in
  let compute = cdiv ops pes in
  let mem =
    if mem_slots_per_cycle <= 0 then invalid_arg "Analysis.res_mii: mem slots"
    else cdiv (Graph.mem_node_count g) mem_slots_per_cycle
  in
  max 1 (max compute mem)

(* A positive cycle in the graph with edge weights [1 - ii * distance]
   means some recurrence circuit needs more than [ii] cycles per
   iteration.  Bellman-Ford longest-path relaxation, starting from 0
   everywhere (equivalent to a virtual source).  [extra] carries
   additional (src, dst, distance) timing constraints, e.g. memory
   ordering edges. *)
let has_positive_cycle ?(extra = []) g ii =
  let n = Graph.n_nodes g in
  let dist = Array.make n 0 in
  let constraints =
    List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.distance)) (Graph.edges g)
    @ extra
  in
  let relax () =
    List.fold_left
      (fun changed (src, dst, d) ->
        let w = 1 - (ii * d) in
        if dist.(src) + w > dist.(dst) then begin
          dist.(dst) <- dist.(src) + w;
          true
        end
        else changed)
      false constraints
  in
  let rec go k = if k = 0 then relax () else if relax () then go (k - 1) else false in
  n > 0 && go n

let feasible_ii g ii = not (has_positive_cycle g ii)

let rec_mii_with ~extra g =
  if Graph.n_nodes g = 0 then 1
  else
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if has_positive_cycle ~extra g mid then search (mid + 1) hi else search lo mid
    in
    (* Any simple cycle has latency <= n + |extra| and distance >= 1. *)
    search 1 (max 1 (Graph.n_nodes g + List.length extra))

let rec_mii g = rec_mii_with ~extra:[] g

let asap g =
  let n = Graph.n_nodes g in
  let levels = Array.make n 0 in
  List.iter
    (fun v ->
      let lvl =
        List.fold_left
          (fun acc (e : Graph.edge) ->
            if e.distance = 0 then max acc (levels.(e.src) + 1) else acc)
          0 (Graph.preds g v)
      in
      levels.(v) <- lvl)
    (Graph.topo_order g);
  levels

let height g =
  let n = Graph.n_nodes g in
  let h = Array.make n 0 in
  List.iter
    (fun v ->
      let lvl =
        List.fold_left
          (fun acc (e : Graph.edge) ->
            if e.distance = 0 then max acc (h.(e.dst) + 1) else acc)
          0 (Graph.succs g v)
      in
      h.(v) <- lvl)
    (List.rev (Graph.topo_order g));
  h

let critical_path g =
  let a = asap g in
  if Array.length a = 0 then 0 else 1 + Array.fold_left max 0 a

(* Tarjan's strongly connected components, iterative to be safe on deep
   graphs.  Components are numbered in reverse topological order of the
   condensation (standard Tarjan property). *)
let sccs g =
  let n = Graph.n_nodes g in
  let succs v = List.map (fun (e : Graph.edge) -> e.dst) (Graph.succs g v) in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let n_comps = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec popall () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !n_comps;
            if w <> v then popall ()
      in
      popall ();
      incr n_comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  comp

let scc_topo_rank g =
  let comp = sccs g in
  let n_comps = Array.fold_left (fun acc c -> max acc (c + 1)) 0 comp in
  (* Tarjan numbers components in reverse topological order. *)
  Array.map (fun c -> n_comps - 1 - c) comp
