type segment =
  | Cpu of int
  | Kernel of { kernel : string; iterations : int }

type t = { id : int; segments : segment list }

let kernel_names t =
  List.sort_uniq String.compare
    (List.filter_map
       (function Kernel { kernel; _ } -> Some kernel | Cpu _ -> None)
       t.segments)

let cgra_iterations t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Kernel { kernel; iterations } ->
          let n = Option.value ~default:0 (Hashtbl.find_opt tbl kernel) in
          Hashtbl.replace tbl kernel (n + iterations)
      | Cpu _ -> ())
    t.segments;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let total_cpu t =
  List.fold_left
    (fun acc -> function Cpu c -> acc + c | Kernel _ -> acc)
    0 t.segments
