(* Linear probing over a power-of-two table kept at most half full.
   [min_int] marks an empty slot, so the set records [min_int] itself in
   a flag beside the table.  A key's home slot is the top bits of the
   key times an odd constant near 2^62/phi (Fibonacci hashing): keys
   that step by a power of two, or differ only in high bits, still
   spread over the table. *)

type t = {
  mutable slots : int array;
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
  mutable size : int;  (* members held in [slots] *)
  mutable has_min_int : bool;
}

let empty = min_int

let create () = { slots = Array.make 16 empty; shift = 59; size = 0; has_min_int = false }

let home shift x = (x * 0x278DDE6E5FD29F05) lsr shift

(* The probes are top-level functions of their arguments: a local
   function closing over the table would allocate a closure per call. *)
let rec find slots mask x i =
  let y = slots.(i) in
  y = x || (y <> empty && find slots mask x ((i + 1) land mask))

let mem t x =
  if x = empty then t.has_min_int
  else find t.slots (Array.length t.slots - 1) x (home t.shift x)

(* Store [x] (not [empty]) in the first free slot from [i], unless it is
   already there; true when it was added. *)
let rec insert slots mask x i =
  let y = slots.(i) in
  if y = x then false
  else if y = empty then begin
    slots.(i) <- x;
    true
  end
  else insert slots mask x ((i + 1) land mask)

let place slots shift x = insert slots (Array.length slots - 1) x (home shift x)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) empty in
  let shift = t.shift - 1 in
  Array.iter (fun x -> if x <> empty then ignore (place slots shift x)) t.slots;
  t.slots <- slots;
  t.shift <- shift

let add t x =
  if x = empty then t.has_min_int <- true
  else begin
    if 2 * (t.size + 1) > Array.length t.slots then grow t;
    if place t.slots t.shift x then t.size <- t.size + 1
  end
