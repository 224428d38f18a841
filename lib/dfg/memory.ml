type t = (string, int array) Hashtbl.t

let create bindings =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (name, arr) ->
      if Hashtbl.mem t name then invalid_arg ("Memory.create: duplicate array " ^ name);
      Hashtbl.add t name arr)
    bindings;
  t

let copy t =
  let u = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter (fun k v -> Hashtbl.add u k (Array.copy v)) t;
  u

let wrap len i =
  let m = i mod len in
  if m < 0 then m + len else m

let get t name =
  match Hashtbl.find_opt t name with
  | Some arr -> arr
  | None -> raise Not_found

let load t name i =
  let arr = get t name in
  arr.(wrap (Array.length arr) i)

let store t name i v =
  let arr = get t name in
  arr.(wrap (Array.length arr) i) <- v

let names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let equal a b =
  names a = names b
  && List.for_all (fun name -> get a name = get b name) (names a)

let diff a b =
  List.concat_map
    (fun name ->
      match Hashtbl.find_opt b name with
      | None -> [ (name, -1, 0, 0) ]
      | Some rb ->
          let ra = get a name in
          let n = min (Array.length ra) (Array.length rb) in
          List.filter_map
            (fun i -> if ra.(i) <> rb.(i) then Some (name, i, ra.(i), rb.(i)) else None)
            (List.init n Fun.id))
    (names a)
