module Json = Cgra_trace.Json
module Table = Cgra_util.Table

type better = Lower | Higher
type kind = Exact | Measured

type row = {
  name : string;
  value : float;
  domains : int;
  runs : int;
  spread : float;
  better : better;
  kind : kind;
  bound : float;
}

type doc = { bench : string; unit_ : string; rows : row list }

let ( let* ) = Result.bind

(* the one spelling of each enum, for both reading and writing *)
let betters = [ ("lower", Lower); ("higher", Higher) ]
let kinds = [ ("exact", Exact); ("measured", Measured) ]
let spell table x = fst (List.find (fun (_, y) -> y = x) table)

let field name what conv v =
  match Json.member name v with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some x -> (
      match conv x with
      | Some y -> Ok y
      | None -> Error (Printf.sprintf "field %S is not %s" name what))

let str name = field name "a string" Json.to_str

(* pool widths and sample counts *)
let count name =
  field name "a positive integer" (fun x ->
      Option.bind (Json.to_int x) (fun i -> if i >= 1 then Some i else None))

(* An infinite baseline could never fail, and no gated quantity is
   negative. *)
let size name =
  field name "a finite non-negative number" (fun x ->
      Option.bind (Json.to_float x) (fun f ->
          if Float.is_finite f && f >= 0.0 then Some f else None))

let enum name table =
  field name
    (String.concat " or " (List.map (fun (s, _) -> Printf.sprintf "%S" s) table))
    (fun x -> Option.bind (Json.to_str x) (fun s -> List.assoc_opt s table))

let row e =
  let* name = str "name" e in
  let* value = size "value" e in
  let* domains = count "domains" e in
  let* runs = count "runs" e in
  let* spread = size "spread" e in
  let* better = enum "better" betters e in
  let* kind = enum "kind" kinds e in
  let* bound = size "bound" e in
  if kind = Measured && bound < 1.0 then
    Error "field \"bound\" of a measured row is a factor, not below 1"
  else Ok { name; value; domains; runs; spread; better; kind; bound }

let parse s =
  let* v = Json.parse s in
  let* bench = str "bench" v in
  let* unit_ = str "unit" v in
  match Json.member "results" v with
  | Some (Json.Arr entries) ->
      let* rows =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* r =
              Result.map_error
                (Printf.sprintf "row %d: %s" (List.length acc))
                (row e)
            in
            if List.exists (fun a -> a.name = r.name) acc then
              Error (Printf.sprintf "duplicate row %S" r.name)
            else Ok (r :: acc))
          (Ok []) entries
      in
      Ok { bench; unit_; rows = List.rev rows }
  | Some _ -> Error "field \"results\" is not an array"
  | None -> Error "missing field \"results\""

let row_json r =
  let str s = Json.to_string (Json.Str s) in
  Printf.sprintf
    "{ \"name\": %s, \"value\": %.3f, \"domains\": %d, \"runs\": %d, \
     \"spread\": %.1f, \"better\": %s, \"kind\": %s, \"bound\": %s }"
    (str r.name) r.value r.domains r.runs r.spread
    (str (spell betters r.better))
    (str (spell kinds r.kind))
    (Json.to_string (Json.Num r.bound))

type outcome = { base : row; current : float option; ok : bool }

let within b c =
  match (b.kind, b.better) with
  | Measured, Lower -> c <= b.value *. b.bound
  | Measured, Higher -> c >= b.value /. b.bound
  | Exact, Lower -> c <= b.value +. b.bound
  | Exact, Higher -> c >= b.value -. b.bound

let check ~baseline ~current =
  List.map
    (fun b ->
      match List.find_opt (fun c -> c.name = b.name) current.rows with
      | None -> { base = b; current = None; ok = false }
      | Some c -> { base = b; current = Some c.value; ok = within b c.value })
    baseline.rows

let failures outcomes =
  List.length (List.filter (fun o -> not o.ok) outcomes)

let render ~unit_ outcomes =
  let fmt v = Table.fmt_float ~decimals:1 v in
  let budget b =
    match (b.kind, b.better) with
    | Measured, Lower -> Printf.sprintf "%.1fx" b.bound
    | Measured, Higher -> Printf.sprintf ">=base/%.1f" b.bound
    | Exact, Lower -> Printf.sprintf "<=base+%g" b.bound
    | Exact, Higher -> Printf.sprintf ">=base-%g" b.bound
  in
  let rows =
    List.map
      (fun o ->
        let b = o.base in
        match o.current with
        | None -> [ b.name; fmt b.value; "-"; "-"; budget b; "FAIL (missing)" ]
        | Some c ->
            [
              b.name;
              fmt b.value;
              fmt c;
              Printf.sprintf "%.2fx" (c /. b.value);
              budget b;
              (if o.ok then "pass" else "FAIL");
            ])
      outcomes
  in
  Table.render
    ~header:
      [ "row"; "baseline " ^ unit_; "current " ^ unit_; "ratio"; "bound";
        "verdict" ]
    rows
