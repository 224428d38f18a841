(* Binary min-heap in a growable array.  Each entry keeps its push
   sequence number, and ties between equal priorities go to the lower
   one, so the pop order is the one total order (priority, push order)
   whatever the heap's shape. *)

type ('p, 'a) entry = { prio : 'p; seq : int; value : 'a }

type ('p, 'a) t = {
  cmp : 'p -> 'p -> int;
  mutable heap : ('p, 'a) entry array;  (* [0, size) is the heap *)
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; heap = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let before t a b =
  let c = t.cmp a.prio b.prio in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Move [e] up from the hole at [i] until its parent comes before it. *)
let rec sift_up t i e =
  if i = 0 then t.heap.(0) <- e
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before t e p then begin
      t.heap.(i) <- p;
      sift_up t parent e
    end
    else t.heap.(i) <- e

(* Move [e] down from the hole at [i] until no child comes before it. *)
let rec sift_down t i e =
  let l = (2 * i) + 1 in
  if l >= t.size then t.heap.(i) <- e
  else
    let r = l + 1 in
    let c = if r < t.size && before t t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before t child e then begin
      t.heap.(i) <- child;
      sift_down t c e
    end
    else t.heap.(i) <- e

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    (* the new entry fills the unused slots: there is no other value of
       type ['a] to fill them with *)
    let bigger = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) e

let min_prio t =
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty queue";
  t.heap.(0).prio

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.heap.(t.size);
  top.value
