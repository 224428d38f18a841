open Cgra_arch

let solve (tb : Page.tables) ~src_base ~n_used ~s ~base ~cross_steps =
  if n_used <= 0 then Some [||]
  else begin
    let k = Array.length tb.orients in
    let n_pages = Array.length tb.pe_at / tb.page_size in
    (* [n] is relative to the source mapping's lowest used page
       [src_base]; [cross_steps] is indexed the same way. *)
    let dst n = base + (n / s) in
    let check_page page =
      if page < 0 || page >= n_pages then
        invalid_arg (Printf.sprintf "Mirror.solve: page %d outside the fabric" page)
    in
    check_page (dst 0);
    check_page (dst (n_used - 1));
    (* Where PE [i] of source page [n] lands under each candidate
       orientation: each cross-step endpoint is relocated once per
       orientation, not once per pair of them. *)
    let images n i =
      if i < 0 || i >= Array.length tb.page_of || tb.page_of.(i) <> src_base + n then
        invalid_arg
          (Printf.sprintf "Mirror.solve: PE %d not in page %d" i (src_base + n));
      Array.init k (fun o -> tb.coord.(Page.move tb ~orient:o ~dst_page:(dst n) i))
    in
    let steps =
      Array.init (n_used - 1) (fun n ->
          List.map (fun (a, b) -> (images n a, images (n + 1) b)) cross_steps.(n))
    in
    (* Same PE or mesh neighbours: register-file reach. *)
    let near (a : Coord.t) (b : Coord.t) = abs (a.row - b.row) + abs (a.col - b.col) <= 1 in
    (* A pair (o_n, o_next) satisfies the steps crossing page n -> n+1 when
       every transferred value stays within register-file reach. *)
    let pair_ok n o_n o_next =
      List.for_all (fun (a, b) -> near a.(o_n) b.(o_next)) steps.(n)
    in
    (* DP over the page path: [pred.(n).(o)] is the first orientation of
       page n-1, in candidate order, that is feasible and compatible with
       [o] on page n; [-1] when [o] is infeasible on page n.  Page 0
       admits every candidate ([k] marks that). *)
    let pred = Array.make_matrix n_used k (-1) in
    Array.fill pred.(0) 0 k k;
    for n = 1 to n_used - 1 do
      for o = 0 to k - 1 do
        let rec first p =
          if p = k then -1
          else if pred.(n - 1).(p) >= 0 && pair_ok (n - 1) p o then p
          else first (p + 1)
        in
        pred.(n).(o) <- first 0
      done
    done;
    let rec first_feasible o =
      if o = k then None
      else if pred.(n_used - 1).(o) >= 0 then Some o
      else first_feasible (o + 1)
    in
    match first_feasible 0 with
    | None -> None
    | Some last ->
        let result = Array.make n_used 0 in
        (* walk back through the witnesses *)
        let rec back n o =
          result.(n) <- o;
          if n > 0 then back (n - 1) pred.(n).(o)
        in
        back (n_used - 1) last;
        Some result
  end
