(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] record
   field would store a freshly boxed Int64 on every draw.  With [bits64]
   inlined, a draw allocates nothing. *)
type t = Bytes.t

let get t = Bytes.get_int64_le t 0

let set t s = Bytes.set_int64_le t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t = of_state (mix (bits64 t))

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(* Inlined into [exponential] (the farm draws one per request) the
   result stays unboxed there; a float returned to another module is
   still boxed, since the dev build compiles with [-opaque]. *)
let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u
