(* The persistent binary store: canonical cache identity, byte-exact
   serialization round-trips, warm starts that never touch the
   scheduler, and graceful rejection of corrupt / stale artifacts. *)

open Cgra_arch
open Cgra_core
module Codec = Cgra_isa.Codec

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let compile_ok a k =
  match Binary.compile a k with
  | Ok b -> b
  | Error e -> Alcotest.failf "compile %s: %s" k.Cgra_kernels.Kernels.name e

(* ----- throwaway store directories ----- *)

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cgra-store-test-%d-%d" (Unix.getpid ()) !dir_seq)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  let store = Cgra_store.open_ dir in
  Fun.protect
    ~finally:(fun () ->
      Cgra_store.uninstall ();
      rm_rf dir)
    (fun () -> f store)

(* ----- the cache-key contract: pinned golden fingerprints ----- *)

(* These strings are the arch component of every persistent cache key.
   If this test fails, the on-disk key format changed: that must be a
   deliberate decision, paired with a [Codec.format_version] bump so old
   stores are retired — never an accident of pretty-printing. *)
let test_fingerprint_golden () =
  List.iter
    (fun ((size, page_pes), expect) ->
      Alcotest.(check string)
        (Printf.sprintf "%dx%d/%d" size size page_pes)
        expect
        (Cgra.fingerprint (arch size page_pes)))
    [
      ((4, 4), "cgra-v1;grid=4,4;pages=rect:2,2;rf=16;memports=2");
      ((6, 4), "cgra-v1;grid=6,6;pages=rect:2,2;rf=27;memports=2");
      ((8, 4), "cgra-v1;grid=8,8;pages=rect:2,2;rf=48;memports=2");
      ((6, 8), "cgra-v1;grid=6,6;pages=band:8;rf=16;memports=2");
      ((4, 2), "cgra-v1;grid=4,4;pages=rect:1,2;rf=24;memports=2");
    ]

let test_fingerprint_is_canonical () =
  (* Binary's cache key is the canonical encoding, not the pretty
     printer's output (which wraps and re-words freely). *)
  let a = arch 4 4 in
  Alcotest.(check string) "Binary delegates" (Cgra.fingerprint a) (Binary.fingerprint a);
  Alcotest.(check bool)
    "distinct archs, distinct keys" true
    (Cgra.fingerprint (arch 4 4) <> Cgra.fingerprint (arch 8 4))

let test_graph_digest () =
  let k name = (Cgra_kernels.Kernels.find_exn name).graph in
  Alcotest.(check string)
    "digest is a function of structure"
    (Codec.graph_digest (k "mpeg"))
    (Codec.graph_digest (k "mpeg"));
  Alcotest.(check bool)
    "different kernels, different digests" true
    (Codec.graph_digest (k "mpeg") <> Codec.graph_digest (k "sobel"))

(* The content address of an artifact: arch fingerprint, graph digest,
   seed and format version hashed together.  Pinned so that a faster
   derivation of any part of the key cannot move a store's files. *)
let test_artifact_path_golden () =
  let store = Cgra_store.open_ (fresh_dir ()) in
  Fun.protect
    ~finally:(fun () -> rm_rf (Cgra_store.dir store))
    (fun () ->
      List.iter
        (fun ((size, page_pes, name, seed), expect) ->
          let k = Cgra_kernels.Kernels.find_exn name in
          let path = Cgra_store.path_for store ~seed (arch size page_pes) k in
          Alcotest.(check string)
            (Printf.sprintf "%s %dx%d/p%d seed %d" name size size page_pes seed)
            (Filename.concat (Cgra_store.dir store) expect)
            path)
        [
          ((4, 4, "mpeg", 0), "71/71df3b7a246f08a55ae32e345665d161.cgrabin");
          ((6, 8, "sobel", 1), "50/50623f2b4d39f83ed87ccdbafaee1b6d.cgrabin");
          ((8, 4, "swim", 7), "ab/ab00dbca90bb150582aad5ac0f024606.cgrabin");
          ((4, 2, "histeq", 0), "af/af083234c171bb834bb62c69057f92f2.cgrabin");
          ((6, 4, "wavelet", -3), "c8/c85cd3fc65bc98b8f2beffb304344579.cgrabin");
        ])

(* ----- serialization round-trips ----- *)

let check_mapping_equal what (a : Cgra_mapper.Mapping.t) (b : Cgra_mapper.Mapping.t) =
  Alcotest.(check int) (what ^ " ii") a.ii b.ii;
  Alcotest.(check bool) (what ^ " paged") a.paged b.paged;
  Alcotest.(check bool) (what ^ " placements") true (a.placements = b.placements);
  Alcotest.(check bool) (what ^ " routes") true (a.routes = b.routes)

(* encode -> decode -> re-encode is the identity on every suite kernel x
   {4x4, 6x6, 8x8}, for both the unconstrained and the paged mapping *)
let test_mapping_roundtrip_suite () =
  List.iter
    (fun size ->
      let a = arch size 4 in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          let b = compile_ok a k in
          List.iter
            (fun (what, m) ->
              let bytes = Codec.mapping_bytes m in
              match Codec.mapping_of_bytes ~arch:a ~graph:k.graph bytes with
              | Error e -> Alcotest.failf "%s %s decode: %s" k.name what e
              | Ok m' ->
                  check_mapping_equal
                    (Printf.sprintf "%s %s %dx%d" k.name what size size)
                    m m';
                  Alcotest.(check bool)
                    (k.name ^ " re-encode is byte-identical")
                    true
                    (Codec.mapping_bytes m' = bytes))
            [ ("base", b.Binary.base); ("paged", b.Binary.paged) ])
        Cgra_kernels.Kernels.all)
    [ 4; 6; 8 ]

(* compile -> save -> load across the store is bit-exact, and the loaded
   binary's context image executes identically to the fresh compile's *)
let test_store_roundtrip_suite () =
  with_store (fun store ->
      List.iter
        (fun size ->
          let a = arch size 4 in
          List.iter
            (fun (k : Cgra_kernels.Kernels.t) ->
              let b = compile_ok a k in
              Cgra_store.save store ~seed:0 a k b;
              match Cgra_store.load store ~seed:0 a k with
              | None -> Alcotest.failf "%s: artifact did not load back" k.name
              | Some b' ->
                  Alcotest.(check string) (k.name ^ " name") b.Binary.name b'.Binary.name;
                  check_mapping_equal (k.name ^ " base") b.Binary.base b'.Binary.base;
                  check_mapping_equal (k.name ^ " paged") b.Binary.paged b'.Binary.paged)
            Cgra_kernels.Kernels.all)
        [ 4; 6; 8 ];
      let c = Cgra_store.counters store in
      Alcotest.(check int) "every load hit" (3 * List.length Cgra_kernels.Kernels.all)
        c.Cgra_store.load_hits;
      Alcotest.(check int) "no rejects" 0 c.Cgra_store.rejects)

let test_loaded_binary_simulates_identically () =
  with_store (fun store ->
      let a = arch 4 4 in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          let fresh = compile_ok a k in
          Cgra_store.save store ~seed:0 a k fresh;
          let loaded = Option.get (Cgra_store.load store ~seed:0 a k) in
          let img m = Result.get_ok (Cgra_isa.Config.encode m) in
          let img_f = img fresh.Binary.paged and img_l = img loaded.Binary.paged in
          (* identical context images... *)
          Alcotest.(check bool)
            (k.name ^ " identical context image")
            true
            (Codec.config_bytes img_f = Codec.config_bytes img_l);
          (* ...and identical execution, memory included *)
          let mem_f = Cgra_kernels.Kernels.init_memory k in
          let mem_l = Cgra_dfg.Memory.copy mem_f in
          let rep_f = Cgra_isa.Exec_image.run img_f mem_f ~iterations:16 in
          let rep_l = Cgra_isa.Exec_image.run img_l mem_l ~iterations:16 in
          Alcotest.(check bool)
            (k.name ^ " same execution report")
            true (rep_f = rep_l);
          Alcotest.(check bool)
            (k.name ^ " same memory")
            true
            (Cgra_dfg.Memory.diff mem_f mem_l = []))
        Cgra_kernels.Kernels.all)

(* ----- warm start: launch without the scheduler ----- *)

let test_warm_start_compiles_nothing () =
  with_store (fun store ->
      let a = arch 4 4 in
      Cgra_store.install store;
      Binary.clear_cache ();
      Binary.reset_stats ();
      (match Binary.compile_suite a with
      | Error e -> Alcotest.fail e
      | Ok suite ->
          Alcotest.(check int) "11 kernels" 11 (List.length suite));
      let cold = Binary.stats () in
      Alcotest.(check int) "cold start compiles everything" 11 cold.Binary.compiles;
      Alcotest.(check int) "cold start stores everything" 11 cold.Binary.stores;
      (* new process, same store: drop the in-memory memo *)
      Binary.clear_cache ();
      Binary.reset_stats ();
      let trace = Cgra_trace.Trace.make () in
      (match Binary.compile_suite ~trace a with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      let warm = Binary.stats () in
      Alcotest.(check int) "warm start compiles nothing" 0 warm.Binary.compiles;
      Alcotest.(check int) "warm start loads everything" 11 warm.Binary.disk_hits;
      (* the scheduler must never have run: no speculative race was even
         started *)
      let raced =
        List.exists
          (fun (e : Cgra_trace.Trace.event) ->
            match e.payload with
            | Cgra_trace.Trace.Span_begin { name } -> name = "sched.race"
            | _ -> false)
          (Cgra_trace.Trace.events trace)
      in
      Alcotest.(check bool) "no sched.race span in a warm start" false raced;
      Alcotest.(check (list (pair string (float 0.0))))
        "tier counters surface through the trace"
        [ ("binary.cache.disk_hit", 11.0) ]
        (Cgra_trace.Trace.counters trace))

(* a warm binary is interchangeable with a compiled one *)
let test_warm_equals_cold () =
  with_store (fun store ->
      let a = arch 4 4 in
      Binary.clear_cache ();
      let cold = Result.get_ok (Binary.compile_suite a) in
      List.iter2
        (fun b (k : Cgra_kernels.Kernels.t) -> Cgra_store.save store ~seed:0 a k b)
        cold Cgra_kernels.Kernels.all;
      Cgra_store.install store;
      Binary.clear_cache ();
      let warm = Result.get_ok (Binary.compile_suite a) in
      List.iter2
        (fun (c : Binary.t) (w : Binary.t) ->
          check_mapping_equal (c.Binary.name ^ " base") c.Binary.base w.Binary.base;
          check_mapping_equal (c.Binary.name ^ " paged") c.Binary.paged w.Binary.paged)
        cold warm)

(* ----- corruption: reject and recompile, never crash ----- *)

(* each corruption is applied to a freshly stored artifact; the poisoned
   load must come back [None] (a miss), and a compile through the
   installed store must fall back to the scheduler and succeed *)
let corruption_case mutate =
  with_store (fun store ->
      let a = arch 4 4 in
      let k = Cgra_kernels.Kernels.find_exn "mpeg" in
      let b = compile_ok a k in
      Cgra_store.save store ~seed:0 a k b;
      let path = Cgra_store.path_for store ~seed:0 a k in
      let content =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (mutate content));
      Alcotest.(check bool)
        "poisoned artifact rejected" true
        (Cgra_store.load store ~seed:0 a k = None);
      Alcotest.(check bool)
        "reject counted" true
        ((Cgra_store.counters store).Cgra_store.rejects > 0);
      (* the two-tier cache heals: recompile, then re-publish *)
      Cgra_store.install store;
      Binary.clear_cache ();
      Binary.reset_stats ();
      (match Binary.compile a k with
      | Ok b' -> check_mapping_equal "recompiled" b.Binary.paged b'.Binary.paged
      | Error e -> Alcotest.fail ("fallback compile failed: " ^ e));
      Alcotest.(check int) "fell back to the scheduler" 1 (Binary.stats ()).Binary.compiles;
      Alcotest.(check bool)
        "healed artifact loads again" true
        (Cgra_store.load store ~seed:0 a k <> None))

let test_truncated_artifact () =
  corruption_case (fun s -> String.sub s 0 (String.length s / 2))

let test_flipped_byte () =
  corruption_case (fun s ->
      (* flip a byte in the middle of the payload *)
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b)

let test_stale_version () =
  corruption_case (fun s ->
      (* the version varint sits right after the 4-byte magic; rewrite it
         to a future format (zigzag: version v encodes as the byte 2v) *)
      let b = Bytes.of_string s in
      Bytes.set b 4 (Char.chr (2 * (Codec.format_version + 1)));
      Bytes.to_string b)

let test_empty_and_garbage_files () =
  with_store (fun store ->
      let a = arch 4 4 in
      let k = Cgra_kernels.Kernels.find_exn "sor" in
      let path = Cgra_store.path_for store ~seed:0 a k in
      rm_rf (Filename.dirname path);
      Unix.mkdir (Filename.dirname path) 0o755;
      List.iter
        (fun junk ->
          let oc = open_out_bin path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc junk);
          Alcotest.(check bool)
            "junk rejected" true
            (Cgra_store.load store ~seed:0 a k = None))
        [
          "";
          "CG";
          "CGRB";
          "NOTB" ^ String.make 64 '\255';
          String.make 3 '\002';
          (* a string length so large that position + length wraps *)
          (let b = Buffer.create 16 in
           Buffer.add_string b "CGRB";
           List.iter (Codec.Wire.w_int b) [ Codec.format_version; max_int ];
           Buffer.add_string b "arch";
           Buffer.contents b);
        ])

let test_hostile_codec_bytes () =
  (* decoders are total: no byte string may raise *)
  let a = arch 4 4 in
  let g = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let m = (compile_ok a (Cgra_kernels.Kernels.find_exn "mpeg")).Binary.paged in
  let good = Codec.mapping_bytes m in
  let cases =
    [ ""; "\255"; String.sub good 0 (String.length good - 1); good ^ "\000" ]
    @ List.init 32 (fun i ->
          let b = Bytes.of_string good in
          let j = i * String.length good / 32 in
          Bytes.set b j (Char.chr ((Char.code (Bytes.get b j) + 1 + i) land 0xff));
          Bytes.to_string b)
  in
  List.iter
    (fun bytes ->
      match Codec.mapping_of_bytes ~arch:a ~graph:g bytes with
      | Ok _ | Error _ -> ())
    cases

(* An artifact whose framing, key and payload MD5 are all consistent,
   but whose paged mapping puts sobel's node 0 somewhere else on 6x6
   with 8-PE band pages, or nowhere.  Off the grid or unplaced, the
   decoder refuses it; on a remainder PE (on the grid, in no page), it
   decodes, and the launch's fold refuses it.  None raises. *)
let test_crafted_placements () =
  let a = arch 6 8 in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let b = compile_ok a k in
  let with_node0 p =
    let placements = Array.copy b.Binary.paged.placements in
    placements.(0) <- p;
    { b.Binary.paged with Cgra_mapper.Mapping.placements }
  in
  let moved pe =
    let p = Option.get b.Binary.paged.placements.(0) in
    with_node0 (Some { p with Cgra_mapper.Mapping.pe })
  in
  let artifact paged =
    let payload = Codec.binary_payload ~name:b.Binary.name ~base:b.Binary.base ~paged in
    let w = Buffer.create 1024 in
    Buffer.add_string w "CGRB";
    Codec.Wire.w_int w Codec.format_version;
    Codec.Wire.w_str w (Cgra.fingerprint a);
    Codec.Wire.w_str w (Codec.graph_digest k.graph);
    Codec.Wire.w_int w 0;
    Codec.Wire.w_str w payload;
    Codec.Wire.w_str w (Digest.string payload);
    Buffer.contents w
  in
  (match Cgra_store.decode ~seed:0 a k (artifact b.Binary.paged) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the unmodified framing is rejected: %s" e);
  (match Cgra_store.decode ~seed:0 a k (artifact (moved (Coord.make ~row:40 ~col:3))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a placement off the grid decoded");
  (match Cgra_store.decode ~seed:0 a k (artifact (with_node0 None)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unplaced operation decoded");
  let remainder =
    List.find
      (fun pe -> Page.page_of_pe a.Cgra.pages pe = None)
      (Grid.all_pes a.Cgra.grid)
  in
  match Cgra_store.decode ~seed:0 a k (artifact (moved remainder)) with
  | Error e -> Alcotest.failf "an on-grid placement is rejected: %s" e
  | Ok loaded -> (
      match Transform.fold ~target_pages:(Cgra.n_pages a / 2) loaded.Binary.paged with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a remainder-PE occupant folded")

(* ----- store audit: scan, stats, gc ----- *)

let test_scan_stats_gc () =
  with_store (fun store ->
      let a = arch 4 4 in
      let kernels = [ "mpeg"; "sor"; "compress" ] in
      List.iter
        (fun name ->
          let k = Cgra_kernels.Kernels.find_exn name in
          Cgra_store.save store ~seed:0 a k (compile_ok a k))
        kernels;
      let st = Cgra_store.stats store in
      Alcotest.(check int) "3 artifacts" 3 st.Cgra_store.artifacts;
      Alcotest.(check int) "all intact" 3 st.Cgra_store.intact;
      (* poison one: flip a payload byte *)
      let victim =
        Cgra_store.path_for store ~seed:0 a (Cgra_kernels.Kernels.find_exn "sor")
      in
      let ic = open_in_bin victim in
      let content =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string content in
      Bytes.set b (String.length content / 2) '\000';
      let oc = open_out_bin victim in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (Bytes.to_string b));
      let st = Cgra_store.stats store in
      Alcotest.(check int) "one corrupt" 1 st.Cgra_store.corrupt;
      Alcotest.(check int) "two intact" 2 st.Cgra_store.intact;
      let removed, freed = Cgra_store.gc store in
      Alcotest.(check int) "gc removed the corrupt artifact" 1 removed;
      Alcotest.(check bool) "freed bytes" true (freed > 0);
      let st = Cgra_store.stats store in
      Alcotest.(check int) "intact survive gc" 2 st.Cgra_store.intact;
      Alcotest.(check int) "nothing corrupt remains" 0 st.Cgra_store.corrupt)

(* a key is the full 4-tuple: a different seed or arch never aliases *)
let test_key_separation () =
  with_store (fun store ->
      let k = Cgra_kernels.Kernels.find_exn "mpeg" in
      let a4 = arch 4 4 and a8 = arch 8 4 in
      let b = compile_ok a4 k in
      Cgra_store.save store ~seed:0 a4 k b;
      Alcotest.(check bool)
        "other seed misses" true
        (Cgra_store.load store ~seed:1 a4 k = None);
      Alcotest.(check bool)
        "other arch misses" true
        (Cgra_store.load store ~seed:0 a8 k = None);
      Alcotest.(check bool)
        "own key hits" true
        (Cgra_store.load store ~seed:0 a4 k <> None))

(* ----- compile_suite short-circuits on the first failure ----- *)

let test_suite_short_circuit () =
  (* a register-starved fabric: the suite fails at sobel (9th of 11).
     The sequential walk must stop there — the kernels after the failure
     are never compiled. *)
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let tiny = Cgra.make ~rf_capacity:3 pages in
  Binary.clear_cache ();
  Binary.reset_stats ();
  (match Binary.compile_suite tiny with
  | Ok _ -> Alcotest.fail "rf=3 fabric should not compile the suite"
  | Error e ->
      Alcotest.(check bool)
        "first failure in suite order is reported" true
        (let sub = "sobel" in
         let rec contains i =
           i + String.length sub <= String.length e
           && (String.sub e i (String.length sub) = sub || contains (i + 1))
         in
         contains 0));
  let st = Binary.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "stopped at the failure (%d compiles)" st.Binary.compiles)
    true
    (st.Binary.compiles < List.length Cgra_kernels.Kernels.all);
  Binary.clear_cache ()

let () =
  Alcotest.run "store"
    [
      ( "identity",
        [
          Alcotest.test_case "golden fingerprints" `Quick test_fingerprint_golden;
          Alcotest.test_case "canonical, not pretty-printed" `Quick
            test_fingerprint_is_canonical;
          Alcotest.test_case "graph digest" `Quick test_graph_digest;
          Alcotest.test_case "golden artifact paths" `Quick test_artifact_path_golden;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "mapping codec over suite x sizes" `Quick
            test_mapping_roundtrip_suite;
          Alcotest.test_case "store over suite x sizes" `Quick
            test_store_roundtrip_suite;
          Alcotest.test_case "loaded binary simulates identically" `Quick
            test_loaded_binary_simulates_identically;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "warm start never runs the scheduler" `Quick
            test_warm_start_compiles_nothing;
          Alcotest.test_case "warm equals cold" `Quick test_warm_equals_cold;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated artifact" `Quick test_truncated_artifact;
          Alcotest.test_case "flipped byte" `Quick test_flipped_byte;
          Alcotest.test_case "stale format version" `Quick test_stale_version;
          Alcotest.test_case "empty and garbage files" `Quick
            test_empty_and_garbage_files;
          Alcotest.test_case "hostile codec bytes" `Quick test_hostile_codec_bytes;
          Alcotest.test_case "crafted placements, valid digest" `Quick
            test_crafted_placements;
        ] );
      ( "audit",
        [
          Alcotest.test_case "scan / stats / gc" `Quick test_scan_stats_gc;
          Alcotest.test_case "key separation" `Quick test_key_separation;
        ] );
      ( "suite",
        [
          Alcotest.test_case "short-circuit on first failure" `Quick
            test_suite_short_circuit;
        ] );
    ]
