open Cgra_arch
open Cgra_dfg
open Cgra_mapper

type report = {
  cycles : int;
  values : int array array;
  violations : string list;
}

type event =
  | Fire of int * int  (* node, iteration *)
  | Hop of Mapping.route * int * int  (* route, hop index, iteration *)

let edge_key (e : Graph.edge) = (e.src, e.dst, e.operand)

let run ?(trace = Cgra_trace.Trace.null) (m : Mapping.t) mem ~iterations =
  if iterations < 0 then invalid_arg "Exec.run: negative iteration count";
  let module T = Cgra_trace.Trace in
  let tracing = T.enabled trace in
  let span = Printf.sprintf "exec:%s" (Graph.name m.graph) in
  let t0 = T.clock trace in
  if tracing then T.emit trace (T.Span_begin { name = span });
  let g = m.graph in
  let grid = m.arch.Cgra.grid in
  let violations = ref [] in
  let violate s = violations := s :: !violations in
  let machine = Machine.create grid mem in
  let values = Array.init iterations (fun _ -> Array.make (Graph.n_nodes g) 0) in
  (* Constants are configuration immediates, not scheduled operations;
     their "result" is the immediate itself in every iteration. *)
  List.iter
    (fun (n : Graph.node) ->
      match n.op with
      | Op.Const k ->
          Array.iter (fun row -> row.(n.id) <- k) values
      | _ -> ())
    (Graph.nodes g);
  let routes_by_edge = Hashtbl.create 16 in
  List.iter
    (fun (r : Mapping.route) -> Hashtbl.replace routes_by_edge (edge_key r.edge) r)
    m.routes;
  (* Collect and order all events: cycle, then PE (determinism only —
     same-cycle events are independent when the mapping is valid). *)
  let events = ref [] in
  for i = 0 to iterations - 1 do
    Array.iteri
      (fun v pl ->
        match pl with
        | Some (p : Mapping.placement) ->
            events := ((i * m.ii) + p.time, Grid.index grid p.pe, Fire (v, i)) :: !events
        | None -> ())
      m.placements;
    List.iter
      (fun (r : Mapping.route) ->
        List.iteri
          (fun j (h : Mapping.placement) ->
            events := ((i * m.ii) + h.time, Grid.index grid h.pe, Hop (r, j, i)) :: !events)
          r.hops)
      m.routes
  done;
  let events =
    List.sort
      (fun (c1, p1, _) (c2, p2, _) -> if c1 <> c2 then compare c1 c2 else compare p1 p2)
      !events
  in
  (* Where does the final value of edge [e] live, and under which tag? *)
  let source_location (e : Graph.edge) src_iter =
    match Hashtbl.find_opt routes_by_edge (edge_key e) with
    | Some r when r.hops <> [] ->
        let last = List.length r.hops - 1 in
        let h = List.nth r.hops last in
        (h.Mapping.pe, Machine.Relay ((e.src, e.dst, e.operand), last, src_iter))
    | Some _ | None ->
        let p = Mapping.placement_exn m e.src in
        (p.pe, Machine.Value (e.src, src_iter))
  in
  let read_operand ~reader ~cycle ~iter (e : Graph.edge) =
    match (Graph.node g e.src).op with
    | Op.Const k -> k
    | _ ->
        let src_iter = iter - e.distance in
        if src_iter < 0 then 0
        else
          let holder, tag = source_location e src_iter in
          (match Machine.read machine ~reader ~holder ~tag ~cycle with
          | Ok v -> v
          | Error msg ->
              violate msg;
              values.(src_iter).(e.src))
  in
  let exec_event (cycle, _, ev) =
    match ev with
    | Fire (v, i) ->
        let p = Mapping.placement_exn m v in
        let args =
          List.map (read_operand ~reader:p.pe ~cycle ~iter:i) (Graph.preds g v)
        in
        let load array idx =
          match Machine.load machine ~cycle array idx with
          | Ok value -> value
          | Error msg ->
              violate msg;
              Memory.load (Machine.memory machine) array idx
        in
        let store array idx value =
          match Machine.store machine ~cycle array idx value with
          | Ok () -> ()
          | Error msg -> violate msg
        in
        let result = Op.eval (Graph.node g v).op ~iter:i ~load ~store args in
        values.(i).(v) <- result;
        Machine.write machine ~pe:p.pe ~tag:(Machine.Value (v, i)) ~cycle result
    | Hop (r, j, i) ->
        let e = r.edge in
        let h = List.nth r.hops j in
        let holder, tag =
          if j = 0 then
            let p = Mapping.placement_exn m e.src in
            (p.Mapping.pe, Machine.Value (e.src, i))
          else
            let prev = List.nth r.hops (j - 1) in
            (prev.Mapping.pe, Machine.Relay ((e.src, e.dst, e.operand), j - 1, i))
        in
        let v =
          match Machine.read machine ~reader:h.Mapping.pe ~holder ~tag ~cycle with
          | Ok v -> v
          | Error msg ->
              violate msg;
              values.(i).(e.src)
        in
        Machine.write machine ~pe:h.Mapping.pe
          ~tag:(Machine.Relay ((e.src, e.dst, e.operand), j, i))
          ~cycle v
  in
  List.iter exec_event events;
  let cycles =
    match List.rev events with [] -> 0 | (c, _, _) :: _ -> c + 1
  in
  let violations = List.rev !violations in
  if tracing then begin
    let fired, hops =
      List.fold_left
        (fun (f, h) (_, _, ev) ->
          match ev with Fire _ -> (f + 1, h) | Hop _ -> (f, h + 1))
        (0, 0) events
    in
    T.emit trace
      (T.Counter { name = "exec.cycles"; value = float_of_int cycles });
    T.emit trace
      (T.Counter { name = "exec.fired"; value = float_of_int fired });
    T.emit trace (T.Counter { name = "exec.hops"; value = float_of_int hops });
    T.emit trace
      (T.Counter
         { name = "exec.violations";
           value = float_of_int (List.length violations) });
    List.iter
      (fun v -> T.emit trace (T.Mark { name = "exec.violation"; detail = v }))
      violations;
    T.emit_at trace ~time:(t0 +. float_of_int cycles) (T.Span_end { name = span })
  end;
  { cycles; values; violations }
