module Json = Cgra_trace.Json

module Hist = struct
  (* Bucket key for v > 0: frexp gives v = m * 2^ex with m in [0.5,1);
     2m-1 in [0,1) selects one of 16 linear sub-buckets, so the key is
     ex*16 + sub and the bucket's lower bound is 2^(ex-1) * (1+sub/16).
     Both maps are exact for dyadic values, which is what makes quantile
     answers exact at bucket edges (integers, cycle counts). *)

  type t = {
    buckets : (int, int ref) Hashtbl.t;
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let zero_key = min_int

  let create () =
    { buckets = Hashtbl.create 16; n = 0; total = 0.0; vmin = infinity;
      vmax = neg_infinity }

  let bucket_key v =
    if v <= 0.0 then zero_key
    else
      let m, ex = Float.frexp v in
      let sub = int_of_float (Float.floor (((2.0 *. m) -. 1.0) *. 16.0)) in
      let sub = if sub < 0 then 0 else if sub > 15 then 15 else sub in
      (ex * 16) + sub

  let bucket_lower key =
    if key = zero_key then 0.0
    else
      let ex = if key >= 0 then key / 16 else (key - 15) / 16 in
      let sub = key - (ex * 16) in
      Float.ldexp (1.0 +. (float_of_int sub /. 16.0)) (ex - 1)

  let add_bucket t key c =
    match Hashtbl.find_opt t.buckets key with
    | Some r -> r := !r + c
    | None -> Hashtbl.add t.buckets key (ref c)

  let observe t v =
    add_bucket t (bucket_key v) 1;
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
      let keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.buckets [])
      in
      let rec walk cum = function
        | [] -> t.vmax
        | k :: rest ->
            let cum = cum + !(Hashtbl.find t.buckets k) in
            if cum >= rank then bucket_lower k else walk cum rest
      in
      Float.min t.vmax (Float.max t.vmin (walk 0 keys))
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
