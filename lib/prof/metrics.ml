module Json = Cgra_trace.Json

module Hist = struct
  (* Bucket key for a finite v > 0: frexp gives v = m * 2^ex with m in
     [0.5,1); 2m-1 in [0,1) selects one of 16 linear sub-buckets, so the
     key is ex*16 + sub and the bucket's lower bound is
     2^(ex-1) * (1+sub/16).  Both maps are exact for dyadic values, which
     is what makes quantile answers exact at bucket edges (integers,
     cycle counts).  Keys run from -17168 (the least subnormal) to 16399
     (max_float), so the finite buckets of one histogram fit a dense
     array from the lowest key it has seen; zero and negative values
     count in a bucket below every key, +infinity in one above every
     key. *)

  type t = {
    mutable counts : int array;  (* counts.(i): observations of key lo + i *)
    mutable lo : int;  (* the key of counts.(0); unused while counts is empty *)
    mutable zeros : int;  (* observations <= 0, lower bound 0 *)
    mutable infs : int;  (* +infinity observations, lower bound infinity *)
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    { counts = [||]; lo = 0; zeros = 0; infs = 0; n = 0; total = 0.0;
      vmin = infinity; vmax = neg_infinity }

  let bucket_key v =
    let m, ex = Float.frexp v in
    let sub = int_of_float (Float.floor (((2.0 *. m) -. 1.0) *. 16.0)) in
    let sub = if sub < 0 then 0 else if sub > 15 then 15 else sub in
    (ex * 16) + sub

  let bucket_lower key =
    let ex = if key >= 0 then key / 16 else (key - 15) / 16 in
    let sub = key - (ex * 16) in
    Float.ldexp (1.0 +. (float_of_int sub /. 16.0)) (ex - 1)

  (* Count one observation of [key], first growing the array to cover
     it: at least doubling, toward the side the key fell on. *)
  let add_key t key =
    let len = Array.length t.counts in
    if len = 0 then begin
      t.counts <- Array.make 16 0;
      t.lo <- key
    end
    else if key < t.lo || key >= t.lo + len then begin
      let hi = max (t.lo + len - 1) key in
      let size = max (2 * len) (hi - min t.lo key + 1) in
      let lo = if key < t.lo then hi - size + 1 else t.lo in
      let grown = Array.make size 0 in
      Array.blit t.counts 0 grown (t.lo - lo) len;
      t.counts <- grown;
      t.lo <- lo
    end;
    let i = key - t.lo in
    t.counts.(i) <- t.counts.(i) + 1

  let observe t v =
    if Float.is_nan v then invalid_arg "Metrics.Hist.observe: NaN";
    if v <= 0.0 then t.zeros <- t.zeros + 1
    else if v = infinity then t.infs <- t.infs + 1
    else add_key t (bucket_key v);
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.total
  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.vmin
  let max_value t = if t.n = 0 then 0.0 else t.vmax

  let quantile t p =
    if t.n = 0 then 0.0
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
      in
      (* buckets in key order: zeros, the dense array, infinities *)
      let rec walk cum i =
        if i = Array.length t.counts then
          if cum + t.infs >= rank then infinity else t.vmax
        else
          let cum = cum + t.counts.(i) in
          if cum >= rank then bucket_lower (t.lo + i) else walk cum (i + 1)
      in
      let v = if t.zeros >= rank then 0.0 else walk t.zeros 0 in
      Float.min t.vmax (Float.max t.vmin v)
    end

  type summary = {
    n : int;
    sum : float;
    mean : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  let summary t =
    {
      n = count t;
      sum = sum t;
      mean = mean t;
      min = min_value t;
      max = max_value t;
      p50 = quantile t 50.0;
      p90 = quantile t 90.0;
      p99 = quantile t 99.0;
    }

  let summary_json t =
    let s = summary t in
    Json.Obj
      [
        ("count", Json.num_of_int s.n);
        ("max", Json.Num s.max);
        ("mean", Json.Num s.mean);
        ("min", Json.Num s.min);
        ("p50", Json.Num s.p50);
        ("p90", Json.Num s.p90);
        ("p99", Json.Num s.p99);
        ("sum", Json.Num s.sum);
      ]
end
