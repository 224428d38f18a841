open Cgra_arch

(* Where PE [i] of source page [src_base + n] lands under each of the
   [k] candidate orientations, written to [img] from [off]: each
   cross-step endpoint is relocated once per orientation, not once per
   pair of them. *)
let relocate_all (tb : Page.tables) ~src_base ~n ~dst i img off =
  if i < 0 || i >= Array.length tb.page_of || tb.page_of.(i) <> src_base + n then
    invalid_arg (Printf.sprintf "Mirror.solve: PE %d not in page %d" i (src_base + n));
  (* [Page.move] written out (see [Transform.visit]), with the PE's
     local index and the page's first slot read once *)
  let local = tb.local_of.(i) and first = dst * tb.page_size in
  for o = 0 to Array.length tb.orients - 1 do
    img.(off + o) <- tb.pe_at.(first + tb.act.(o).(local))
  done

(* Same PE or mesh neighbours: register-file reach. *)
let near (coord : Coord.t array) i j =
  let a = coord.(i) and b = coord.(j) in
  abs (a.row - b.row) + abs (a.col - b.col) <= 1

(* Orientation [p] of one page and [o] of the next satisfy the steps
   crossing between them when every transferred value stays within
   register-file reach: [ia] and [ib] hold the steps' producer and reader
   images, [k] per step. *)
let compatible coord ia ib k p o =
  let rec go off = off >= Array.length ia || (near coord ia.(off + p) ib.(off + o) && go (off + k)) in
  go 0

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
    (* [ia.(n)] and [ib.(n)]: the images of the producers and readers of
       the steps crossing page n -> n+1, in list order.  A step's reader
       is checked before its producer. *)
    let ia = Array.make (n_used - 1) [||] and ib = Array.make (n_used - 1) [||] in
    for n = 0 to n_used - 2 do
      let m = List.length cross_steps.(n) in
      let a_img = Array.make (m * k) 0 and b_img = Array.make (m * k) 0 in
      List.iteri
        (fun j (a, b) ->
          relocate_all tb ~src_base ~n:(n + 1) ~dst:(dst (n + 1)) b b_img (j * k);
          relocate_all tb ~src_base ~n ~dst:(dst n) a a_img (j * k))
        cross_steps.(n);
      ia.(n) <- a_img;
      ib.(n) <- b_img
    done;
    (* DP over the page path: [pred.(n * k + o)] is the first orientation
       of page n-1, in candidate order, that is feasible and compatible
       with [o] on page n; [-1] when [o] is infeasible on page n.  Page 0
       admits every candidate ([k] marks that). *)
    let pred = Array.make (n_used * k) (-1) in
    Array.fill pred 0 k k;
    for n = 1 to n_used - 1 do
      let a_img = ia.(n - 1) and b_img = ib.(n - 1) in
      for o = 0 to k - 1 do
        let p = ref 0 in
        while
          !p < k
          && not (pred.(((n - 1) * k) + !p) >= 0 && compatible tb.coord a_img b_img k !p o)
        do
          incr p
        done;
        if !p < k then pred.((n * k) + o) <- !p
      done
    done;
    let last_row = (n_used - 1) * k in
    let rec first_feasible o =
      if o = k then None
      else if pred.(last_row + o) >= 0 then Some o
      else first_feasible (o + 1)
    in
    match first_feasible 0 with
    | None -> None
    | Some last ->
        let result = Array.make n_used 0 in
        (* walk back through the witnesses *)
        let rec back n o =
          result.(n) <- o;
          if n > 0 then back (n - 1) pred.((n * k) + o)
        in
        back (n_used - 1) last;
        Some result
  end
