(* The pairing heap [Cgra_util.Pqueue] was before it became a mutable
   array heap, kept verbatim as the reference for [test_util]'s
   differential test and for [test_mapper]'s reference router. *)

(* Pairing heap with an insertion sequence number for deterministic
   tie-breaking. *)

type ('p, 'a) node = { prio : 'p; seq : int; value : 'a; children : ('p, 'a) node list }

type ('p, 'a) t = {
  cmp : 'p -> 'p -> int;
  root : ('p, 'a) node option;
  next_seq : int;
  count : int;
}

let empty ~cmp = { cmp; root = None; next_seq = 0; count = 0 }

let is_empty t = t.root = None

let size t = t.count

let node_le cmp a b =
  let c = cmp a.prio b.prio in
  if c <> 0 then c < 0 else a.seq <= b.seq

let meld cmp a b =
  if node_le cmp a b then { a with children = b :: a.children }
  else { b with children = a :: b.children }

let push t prio value =
  let n = { prio; seq = t.next_seq; value; children = [] } in
  let root = match t.root with None -> n | Some r -> meld t.cmp r n in
  { t with root = Some root; next_seq = t.next_seq + 1; count = t.count + 1 }

let rec merge_pairs cmp = function
  | [] -> None
  | [ n ] -> Some n
  | a :: b :: rest -> (
      let ab = meld cmp a b in
      match merge_pairs cmp rest with None -> Some ab | Some r -> Some (meld cmp ab r))

let pop t =
  match t.root with
  | None -> None
  | Some r ->
      let rest = { t with root = merge_pairs t.cmp r.children; count = t.count - 1 } in
      Some ((r.prio, r.value), rest)

let peek t = match t.root with None -> None | Some r -> Some (r.prio, r.value)

let of_list ~cmp xs = List.fold_left (fun q (p, x) -> push q p x) (empty ~cmp) xs

let to_sorted_list t =
  let rec go acc q =
    match pop q with None -> List.rev acc | Some (px, q') -> go (px :: acc) q'
  in
  go [] t
