type case = { counts : (string * int) list; failures : string list }

type harness = { name : string; counters : string list; case : int -> case }

type outcome = {
  harness : string;
  cases : int;
  counts : (string * int) list;
  failures : string list;
}

let run ?pool h ~seeds =
  let one seed =
    match h.case seed with
    | c -> c
    | exception e ->
        {
          counts = [];
          failures =
            [ Printf.sprintf "seed %d: raised %s" seed (Printexc.to_string e) ];
        }
  in
  let pool = match pool with Some p -> p | None -> Pool.create ~domains:1 () in
  let cases = Pool.map pool one seeds in
  (* folded in seed order: the outcome is the same at any pool width *)
  let totals = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace totals name 0) h.counters;
  List.iter
    (fun (c : case) ->
      List.iter
        (fun (name, n) ->
          match Hashtbl.find_opt totals name with
          | Some t -> Hashtbl.replace totals name (t + n)
          | None ->
              invalid_arg
                (Printf.sprintf "Corpus.run: %s reports undeclared counter %S"
                   h.name name))
        c.counts)
    cases;
  {
    harness = h.name;
    cases = List.length seeds;
    counts = List.map (fun name -> (name, Hashtbl.find totals name)) h.counters;
    failures = List.concat_map (fun (c : case) -> c.failures) cases;
  }

let count o name = List.assoc name o.counts

let pp ppf o =
  Format.fprintf ppf "@[<v>%s: %d cases%s@,%s@]" o.harness o.cases
    (String.concat ""
       (List.map (fun (name, n) -> Printf.sprintf ", %d %s" n name) o.counts))
    (match o.failures with
    | [] -> "all checks hold"
    | fs ->
        Printf.sprintf "%d FAILURES:\n%s" (List.length fs)
          (String.concat "\n" fs))
