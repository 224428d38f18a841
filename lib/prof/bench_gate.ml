module Json = Cgra_trace.Json
module Table = Cgra_util.Table

type row = {
  name : string;
  value : float;
  domains : int;
  runs : int;
  spread : float;
}

type doc = { bench : string; unit_ : string; rows : row list }

let ( let* ) = Result.bind

let str_member name v =
  match Json.member name v with
  | Some s -> (
      match Json.to_str s with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S is not a string" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let num_member ?default name v =
  match (Json.member name v, default) with
  | Some n, _ -> (
      match Json.to_float n with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S is not a number" name))
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" name)

(* pool widths and sample counts: positive integers *)
let count_member ~default name v =
  match Json.member name v with
  | None -> Ok default
  | Some n -> (
      match Json.to_int n with
      | Some i when i >= 1 -> Ok i
      | Some _ | None ->
          Error (Printf.sprintf "field %S is not a positive integer" name))

let parse s =
  let* v = Json.parse s in
  let* bench = str_member "bench" v in
  let* unit_ = str_member "unit" v in
  let* doc_domains = count_member ~default:1 "domains" v in
  match Json.member "results" v with
  | Some (Json.Arr entries) ->
      let* rows =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* name = str_member "name" e in
            let* value = num_member "value" e in
            let* domains = count_member ~default:doc_domains "domains" e in
            let* runs = count_member ~default:1 "runs" e in
            let* spread = num_member ~default:0.0 "spread" e in
            Ok ({ name; value; domains; runs; spread } :: acc))
          (Ok []) entries
      in
      Ok { bench; unit_; rows = List.rev rows }
  | Some _ -> Error "field \"results\" is not an array"
  | None -> Error "missing field \"results\""

let has_prefix p name =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

let contains sub name =
  let n = String.length name and m = String.length sub in
  let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Farm sim-rate rows time the coordinator's wall clock (requests per
   wall-second), so despite the "farm" prefix they are measurements,
   not deterministic outputs. *)
let sim_rate name = contains "sim-rate" name

(* All other farm rows are virtual-clock simulation outputs:
   deterministic down to float formatting, so the budget is a flat
   epsilon either way. *)
let deterministic name = has_prefix "farm" name && not (sim_rate name)

(* Fig. 8 geomean rows are deterministic quality scores (percent,
   higher is better), not wall measurements; farm throughput rows
   (req/kcycle) likewise gate upward, with a flat epsilon for float
   formatting.  Sim-rate rows also gate upward — a slower front end is
   the regression — but as wall measurements, with a jitter ratio. *)
let higher_is_better name =
  has_prefix "fig8" name || sim_rate name
  || (deterministic name && contains "req/" name)

let epsilon name = if deterministic name then 0.001 else 0.05

(* Per-row slowdown budgets.  Everything here is a shared-machine wall
   measurement, so the budgets are about catching algorithmic
   regressions (2x-10x), not scheduling noise. *)
let tolerance name =
  if sim_rate name then 2.0
  else if higher_is_better name || deterministic name then 1.0
  else if has_prefix "compile-sobel-warm" name || has_prefix "compile-suite-warm" name
  then 4.0 (* microsecond-scale disk reads: highest relative jitter *)
  else 2.0

type outcome = {
  o_name : string;
  baseline : float;
  current : float option;
  tol : float;
  ok : bool;
}

let check ~baseline ~current =
  List.map
    (fun b ->
      let tol = tolerance b.name in
      match List.find_opt (fun c -> c.name = b.name) current.rows with
      | None -> { o_name = b.name; baseline = b.value; current = None; tol;
                  ok = false }
      | Some c ->
          let ok =
            if sim_rate b.name then c.value >= b.value /. tol
            else if higher_is_better b.name then
              c.value >= b.value -. epsilon b.name
            else if deterministic b.name then
              c.value <= b.value +. epsilon b.name
            else c.value <= b.value *. tol
          in
          { o_name = b.name; baseline = b.value; current = Some c.value; tol;
            ok })
    baseline.rows

let failures outcomes =
  List.length (List.filter (fun o -> not o.ok) outcomes)

let render ~unit_ outcomes =
  let fmt v = Table.fmt_float ~decimals:1 v in
  let tol_label o =
    if sim_rate o.o_name then Printf.sprintf ">=base/%.1f" o.tol
    else if higher_is_better o.o_name then ">=base"
    else if deterministic o.o_name then "<=base"
    else Printf.sprintf "%.1fx" o.tol
  in
  let rows =
    List.map
      (fun o ->
        match o.current with
        | None ->
            [ o.o_name; fmt o.baseline; "-"; "-"; tol_label o;
              "FAIL (missing)" ]
        | Some c ->
            [
              o.o_name;
              fmt o.baseline;
              fmt c;
              Printf.sprintf "%.2fx" (c /. o.baseline);
              tol_label o;
              (if o.ok then "pass" else "FAIL");
            ])
      outcomes
  in
  Table.render
    ~header:
      [ "row"; "baseline " ^ unit_; "current " ^ unit_; "ratio"; "tol";
        "verdict" ]
    rows
