(* Suites on the shared seeded-corpus driver: every fuzz harness is
   deterministic and pool-width independent, and every parser of
   outside bytes is total on mutated inputs. *)

open Cgra_arch
open Cgra_core
module Corpus = Cgra_util.Corpus
module Rng = Cgra_util.Rng
module T = Cgra_trace.Trace
module Export = Cgra_trace.Export
module Codec = Cgra_isa.Codec

(* ---------- determinism, one row per harness ---------- *)

let harnesses =
  [
    (Cgra_verify.Fuzz.harness ~iterations:8, List.init 8 (fun i -> 100 + i));
    (Cgra_verify.Os_fuzz.harness, List.init 8 Fun.id);
    (Cgra_verify.Meld_fuzz.harness, List.init 8 (fun i -> 200 + i));
    (Cgra_farm.Farm_fuzz.harness, List.init 8 Fun.id);
  ]

let test_deterministic (h, seeds) () =
  let a = Corpus.run h ~seeds in
  Alcotest.(check (list string)) "clean" [] a.failures;
  Alcotest.(check bool) "rerun identical" true (Corpus.run h ~seeds = a);
  Alcotest.(check bool) "identical on 4 unclamped domains" true
    (Cgra_util.Pool.with_pool ~clamp:false ~domains:4 (fun pool ->
         Corpus.run ~pool h ~seeds)
    = a)

(* ---------- parsers of outside bytes ---------- *)

let arch = lazy (Option.get (Cgra.standard ~size:4 ~page_pes:4))

let kernel = Cgra_kernels.Kernels.find_exn "sor"

let binary =
  lazy
    (match Binary.compile (Lazy.force arch) kernel with
    | Ok b -> b
    | Error e -> Alcotest.failf "compile sor: %s" e)

(* A real Multi-mode run: grants, reshapes, occupancy samples and
   allocator decisions all appear. *)
let trace_input =
  lazy
    (let a = Lazy.force arch in
     let suite =
       match Binary.compile_suite a with
       | Ok s -> s
       | Error e -> Alcotest.failf "compile_suite: %s" e
     in
     let threads =
       Workload.generate ~seed:0 ~n_threads:2 ~cgra_need:0.875 ~suite ()
     in
     let trace = T.make () in
     ignore
       (Os_sim.run ~trace
          { Os_sim.suite; threads; total_pages = Cgra.n_pages a; mode = Os_sim.Multi });
     Export.jsonl (T.events trace))

let payload =
  lazy
    (let b = Lazy.force binary in
     Codec.binary_payload ~name:b.Binary.name ~base:b.Binary.base
       ~paged:b.Binary.paged)

(* The artifact file the store would publish for [binary]. *)
let artifact =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "cgra-corpus-%d" (Unix.getpid ()))
     in
     let store = Cgra_store.open_ dir in
     let a = Lazy.force arch in
     Cgra_store.save store ~seed:0 a kernel (Lazy.force binary);
     let path = Cgra_store.path_for store ~seed:0 a kernel in
     let bytes = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     Unix.rmdir (Filename.dirname path);
     Unix.rmdir dir;
     bytes)

let config =
  lazy
    (match Cgra_isa.Config.encode (Lazy.force binary).Binary.paged with
    | Ok img -> Codec.config_bytes img
    | Error e -> Alcotest.failf "encode: %s" e)

let bench =
  {|{
  "bench": "micro",
  "domains": 1,
  "unit": "ns_per_run",
  "results": [
    { "name": "fold sobel 8x8 to 1 page", "value": 19974.541, "domains": 1, "runs": 5, "spread": 11.8, "better": "lower", "kind": "measured", "bound": 2 },
    { "name": "farm load1.0 req/kcycle", "value": 13.856, "domains": 2, "runs": 3, "spread": 0.0, "better": "higher", "kind": "exact", "bound": 0.001 },
    { "name": "warm launch sobel", "value": 20311.9, "domains": 4, "runs": 3, "spread": 40.2, "better": "lower", "kind": "measured", "bound": 4 }
  ]
}
|}

(* ----- mutations ----- *)

let hostile_numbers =
  [ "-1"; "-3"; "0.5"; "2.5"; "1e30"; "-1e30"; "1e308"; "4611686018427387904" ]

let hostile_varints = [ -1; -3; 1 lsl 31; 1 lsl 32; max_int; min_int ]

let splice_at s i ~drop ~insert =
  String.sub s 0 i ^ insert ^ String.sub s (i + drop) (String.length s - i - drop)

(* maximal runs of number characters that start a JSON number *)
let numeric_tokens s =
  let n = String.length s in
  let is_num c = String.contains "-+.0123456789eE" c in
  let rec go i acc =
    if i >= n then List.rev acc
    else if (s.[i] = '-' || (s.[i] >= '0' && s.[i] <= '9'))
            && (i = 0 || not (is_num s.[i - 1]))
    then begin
      let j = ref i in
      while !j < n && is_num s.[!j] do incr j done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let byte_mutation rng s =
  let n = String.length s in
  let pos () = Rng.int rng (max 1 n) in
  match Rng.int rng 4 with
  | 0 -> ("truncate", String.sub s 0 (pos ()))
  | 1 when n > 0 ->
      let i = pos () in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl Rng.int rng 8)));
      ("bit flip", Bytes.to_string b)
  | 2 ->
      (* join two cut points: deletes or duplicates a stretch *)
      let i = pos () and j = pos () in
      ("splice", String.sub s 0 i ^ String.sub s j (n - j))
  | _ when n > 0 ->
      ("random byte", splice_at s (pos ()) ~drop:1
         ~insert:(String.make 1 (Char.chr (Rng.int rng 256))))
  | _ -> ("truncate", s)

let text_mutation rng s =
  match numeric_tokens s with
  | tokens when tokens <> [] && Rng.bool rng ->
      let i, len = List.nth tokens (Rng.int rng (List.length tokens)) in
      let v = List.nth hostile_numbers (Rng.int rng (List.length hostile_numbers)) in
      ("number " ^ v, splice_at s i ~drop:len ~insert:v)
  | _ -> byte_mutation rng s

(* replace the varint starting at a random offset with a hostile one *)
let binary_mutation rng s =
  let n = String.length s in
  if n > 0 && Rng.int rng 5 = 0 then begin
    let i = Rng.int rng n in
    let j = ref i in
    while !j < n && Char.code s.[!j] land 0x80 <> 0 do incr j done;
    let v = List.nth hostile_varints (Rng.int rng (List.length hostile_varints)) in
    let b = Buffer.create 10 in
    Codec.Wire.w_int b v;
    ( Printf.sprintf "varint %d" v,
      splice_at s i ~drop:(min n (!j + 1) - i) ~insert:(Buffer.contents b) )
  end
  else byte_mutation rng s

(* ----- the harness: one mutant of every input per seed ----- *)

let parsers_case seed =
  let rng = Rng.create ~seed in
  let accepted = ref 0 and rejected = ref 0 and profiled = ref 0 in
  let failures = ref [] in
  let verdict ~input (mutation, bytes) decode =
    let fail what =
      failures :=
        Printf.sprintf "seed %d: %s, %s: %s" seed input mutation what :: !failures
    in
    match decode bytes with
    | Ok () -> incr accepted
    | Error `Rejected -> incr rejected
    | Error (`Wrong what) -> fail what
    | exception e -> fail ("raised " ^ Printexc.to_string e)
  in
  (* JSONL trace: every accepted trace must profile and replay *)
  verdict ~input:"trace" (text_mutation rng (Lazy.force trace_input)) (fun s ->
      match Export.of_jsonl s with
      | Error _ -> Error `Rejected
      | Ok events ->
          ignore (Cgra_trace.Replay.aggregates events);
          (match Cgra_prof.Analyze.profile events with
          | Ok _ -> incr profiled
          | Error _ -> ());
          Ok ());
  (* store artifact: digest-protected, so a mutant loads as the original
     binary or not at all *)
  verdict ~input:"artifact" (binary_mutation rng (Lazy.force artifact)) (fun s ->
      match Cgra_store.decode ~seed:0 (Lazy.force arch) kernel s with
      | Error _ -> Error `Rejected
      | Ok b ->
          if
            Codec.binary_payload ~name:b.Binary.name ~base:b.Binary.base
              ~paged:b.Binary.paged
            = Lazy.force payload
          then Ok ()
          else Error (`Wrong "loaded a binary other than the one stored"));
  (* payload: an accepted mutant is what a launch would fold, so its
     paged mapping must fold to one page and to half the fabric with a
     verdict, never an exception *)
  verdict ~input:"payload" (binary_mutation rng (Lazy.force payload)) (fun s ->
      match Codec.binary_of_payload ~arch:(Lazy.force arch) ~graph:kernel.graph s with
      | Error _ -> Error `Rejected
      | Ok (_, _, paged) ->
          List.iter
            (fun target_pages ->
              match Transform.fold ~target_pages paged with Ok _ | Error _ -> ())
            [ 1; Cgra.n_pages (Lazy.force arch) / 2 ];
          Ok ());
  (* context image: rows x cols contexts of ii slots each, checked
     without multiplying *)
  verdict ~input:"config" (binary_mutation rng (Lazy.force config)) (fun s ->
      match Codec.config_of_bytes s with
      | Error _ -> Error `Rejected
      | Ok img ->
          let n = Array.length img.Cgra_isa.Config.contexts in
          if n mod img.cols = 0 && n / img.cols = img.rows
             && Array.for_all (fun c -> Array.length c = img.ii) img.contexts
          then Ok ()
          else
            Error
              (`Wrong
                (Printf.sprintf "%dx%d image with %d contexts" img.rows img.cols n)));
  (* BENCH file: every accepted row is one the gate can decide *)
  verdict ~input:"bench" (text_mutation rng bench) (fun s ->
      match Cgra_prof.Bench_gate.parse s with
      | Error _ -> Error `Rejected
      | Ok d ->
          let decidable (r : Cgra_prof.Bench_gate.row) =
            Float.is_finite r.value && r.value >= 0.0 && Float.is_finite r.bound
            && r.bound >= (if r.kind = Exact then 0.0 else 1.0)
          in
          let names = List.map (fun (r : Cgra_prof.Bench_gate.row) -> r.name) d.rows in
          if not (List.for_all decidable d.rows) then Error (`Wrong "undecidable row")
          else if List.length (List.sort_uniq compare names) <> List.length names
          then Error (`Wrong "duplicate row name")
          else Ok ());
  {
    Corpus.counts =
      [ ("accepted", !accepted); ("rejected", !rejected); ("profiled", !profiled) ];
    failures = List.rev !failures;
    digest = "";
  }

let parsers =
  {
    Corpus.name = "parsers";
    counters = [ "accepted"; "rejected"; "profiled" ];
    case = parsers_case;
  }

let test_parsers_total () =
  let o = Corpus.run parsers ~seeds:(List.init 1000 Fun.id) in
  (match o.failures with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d parser failures:\n%s" (List.length fs)
        (String.concat "\n" fs));
  let count = Corpus.count o in
  Alcotest.(check int) "five mutants per seed" 5000
    (count "accepted" + count "rejected");
  Alcotest.(check bool) "both verdicts exercised" true
    (count "accepted" > 0 && count "rejected" > 0);
  Alcotest.(check bool) "mutated traces profiled" true (count "profiled" > 0)

(* ---------- the CLI: every numeric flag is total ---------- *)

(* Run one command line in-process; returns its exit status, stdout and
   stderr.  [~catch:false] lets any exception escape into the test. *)
let run_cli argv =
  let redirect fd =
    let path = Filename.temp_file "cgra-cli" ".txt" in
    let saved = Unix.dup fd in
    let file = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    Unix.dup2 file fd;
    Unix.close file;
    (path, saved)
  in
  let restore fd (path, saved) =
    Unix.dup2 saved fd;
    Unix.close saved;
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  Format.print_flush ();
  flush_all ();
  let out = redirect Unix.stdout and err = redirect Unix.stderr in
  (* restored before an exception escapes, so the test report shows it *)
  let texts = ref ("", "") in
  let status =
    Fun.protect
      ~finally:(fun () ->
        Format.print_flush ();
        Format.pp_print_flush Format.err_formatter ();
        flush_all ();
        texts := (restore Unix.stdout out, restore Unix.stderr err))
      (fun () ->
        Cmdliner.Cmd.eval' ~catch:false
          ~argv:(Array.of_list ("cgra_tool" :: argv))
          Cgra_cli.cmd)
  in
  let out, err = !texts in
  (status, out, err)

let scratch name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cgra-cli-%d-%s" (Unix.getpid ()) name)

let cli_store = scratch "store"

let cli_trace = scratch "trace.json"

(* Every command with a cheap command line that succeeds, and the
   numeric flags to corrupt.  A base option is dropped while its flag is
   under test; "N" is fuzz's positional seed count. *)
let cli_commands =
  let sized = [ "--size"; "--page-size"; "--seed"; "--domains" ] in
  let os = sized @ [ "--threads"; "--need"; "--reconfig-cost" ] in
  [
    ("kernels", [], [], []);
    ("dot", [ "--kernel=mpeg" ], [], []);
    ("cache", [ "--cache=" ^ cli_store ], [ "stats" ], []);
    ("map", [ "--kernel=mpeg" ], [], sized);
    ( "shrink",
      [ "--kernel=mpeg"; "--target-pages=1" ],
      [],
      sized @ [ "--target-pages" ] );
    ( "simulate",
      [ "--kernel=mpeg"; "--iterations=2" ],
      [],
      sized @ [ "--iterations" ] );
    ("trace", [ "--threads=2"; "--out=" ^ cli_trace ], [], os);
    ("profile", [ "--threads=2" ], [], os);
    ( "encode",
      [ "--kernel=mpeg"; "--paged"; "--target-pages=1" ],
      [],
      sized @ [ "--target-pages" ] );
    ("compile", [ "--kernel=mpeg" ], [], sized);
    ("greedy", [], [], [ "-n"; "-m"; "--ii"; "--iterations" ]);
    ( "verify",
      [ "--kernel=mpeg"; "--paged"; "--fold-sweep"; "--iterations=2" ],
      [],
      sized @ [ "--iterations" ] );
    ("fuzz", [], [ "os"; "1" ], [ "N"; "--seed"; "--domains" ]);
    ( "farm",
      [ "--shards=4"; "--requests=10" ],
      [],
      [ "--shards"; "--page-size"; "--tenants"; "--requests"; "--load";
        "--queue-bound"; "--max-resident"; "--seed"; "--reconfig-cost";
        "--domains" ] );
    ("fig8", [ "--size=4" ], [], [ "--size"; "--seed"; "--domains" ]);
    ( "fig9",
      [ "--size=4"; "--replicates=1" ],
      [],
      [ "--size"; "--seed"; "--replicates"; "--domains" ] );
  ]

(* cheap values first, so a missing lower bound fails before a huge
   value can run *)
let cli_values = [ "x"; "nan"; "inf"; "-inf"; "1e300"; "0"; "-1"; "4611686018427387903" ]

(* The exit statuses a value may produce: 124 when it does not parse;
   any int for --seed and -j; 1 for a negative or huge count and for
   every non-finite or huge float. *)
let allowed flag v =
  let float_flag = List.mem flag [ "--need"; "--reconfig-cost"; "--load" ] in
  let free = List.mem flag [ "--seed"; "--domains" ] in
  match v with
  | "x" -> [ 124 ]
  | "nan" | "inf" | "-inf" | "1e300" -> if float_flag then [ 1 ] else [ 124 ]
  | _ when free -> [ 0 ]
  | "0" -> [ 0; 1 ]
  | _ -> [ 1 ]

let test_cli_total () =
  let check argv allowed =
    let line = String.concat " " argv in
    let status, out, err =
      try run_cli argv
      with e -> Alcotest.failf "cgra_tool %s raised %s" line (Printexc.to_string e)
    in
    if not (List.mem status allowed) then
      Alcotest.failf "cgra_tool %s: exit %d\nstderr: %s" line status err;
    if status = 1 then begin
      if out <> "" then
        Alcotest.failf "cgra_tool %s: refused after printing:\n%s" line out;
      match String.split_on_char '\n' err with
      | [ msg; "" ] when String.starts_with ~prefix:"error: " msg -> ()
      | _ -> Alcotest.failf "cgra_tool %s: not one error line:\n%s" line err
    end
  in
  List.iter
    (fun (name, opts, pos, flags) ->
      check ((name :: opts) @ pos) [ 0 ];
      List.iter
        (fun flag ->
          List.iter
            (fun v ->
              let argv =
                if flag = "N" then [ name; List.hd pos; "--"; v ]
                else
                  let opts =
                    List.filter
                      (fun o -> not (String.starts_with ~prefix:(flag ^ "=") o))
                      opts
                  in
                  (* short flags take their value glued: -n-1 *)
                  let arg =
                    if String.length flag = 2 then flag ^ v else flag ^ "=" ^ v
                  in
                  (name :: opts) @ (arg :: pos)
              in
              check argv (allowed flag v))
            cli_values)
        flags)
    cli_commands;
  Sys.rmdir cli_store;
  Sys.remove cli_trace

let () =
  Alcotest.run "corpus"
    [
      ( "determinism",
        List.map
          (fun ((h : Corpus.harness), seeds) ->
            Alcotest.test_case h.name `Quick (test_deterministic (h, seeds)))
          harnesses );
      ( "parsers",
        [ Alcotest.test_case "total on mutated inputs" `Quick test_parsers_total ] );
      ( "cli",
        [ Alcotest.test_case "every numeric flag is total" `Quick test_cli_total ] );
    ]
