open Cgra_core
module Codec = Cgra_isa.Codec
module Wire = Cgra_isa.Codec.Wire

let magic = "CGRB"

let extension = ".cgrabin"

type counters = {
  load_hits : int;
  load_misses : int;
  rejects : int;
  saves : int;
  save_failures : int;
}

type t = {
  root : string;
  load_hits : int Atomic.t;
  load_misses : int Atomic.t;
  rejects : int Atomic.t;
  saves : int Atomic.t;
  save_failures : int Atomic.t;
  tmp_seq : int Atomic.t;
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ root =
  mkdir_p root;
  {
    root;
    load_hits = Atomic.make 0;
    load_misses = Atomic.make 0;
    rejects = Atomic.make 0;
    saves = Atomic.make 0;
    save_failures = Atomic.make 0;
    tmp_seq = Atomic.make 0;
  }

let dir t = t.root

let counters t =
  {
    load_hits = Atomic.get t.load_hits;
    load_misses = Atomic.get t.load_misses;
    rejects = Atomic.get t.rejects;
    saves = Atomic.get t.saves;
    save_failures = Atomic.get t.save_failures;
  }

(* ----- keys and paths ----- *)

(* The content address covers the full identity 4-tuple.  Bumping
   [Codec.format_version] therefore re-addresses every artifact — stale
   files are simply never looked up again (and [gc] reaps them). *)
let key_hash ~version ~arch_fp ~kernel_digest ~seed =
  Digest.to_hex
    (Digest.string
       (String.concat "|" [ string_of_int version; arch_fp; kernel_digest; string_of_int seed ]))

let rel_path_of_hash hash = Filename.concat (String.sub hash 0 2) (hash ^ extension)

(* One artifact's identity and address, derived once per load or save. *)
type key = { arch_fp : string; kernel_digest : string; seed : int; rel_path : string }

let key_of ~seed arch (k : Cgra_kernels.Kernels.t) =
  let arch_fp = Binary.fingerprint arch and kernel_digest = Codec.graph_digest k.graph in
  let hash = key_hash ~version:Codec.format_version ~arch_fp ~kernel_digest ~seed in
  { arch_fp; kernel_digest; seed; rel_path = rel_path_of_hash hash }

let path_for t ~seed arch k = Filename.concat t.root (key_of ~seed arch k).rel_path

(* ----- artifact framing ----- *)

let artifact_bytes ~arch_fp ~kernel_digest ~seed ~payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b magic;
  Wire.w_int b Codec.format_version;
  Wire.w_str b arch_fp;
  Wire.w_str b kernel_digest;
  Wire.w_int b seed;
  Wire.w_str b payload;
  Wire.w_str b (Digest.string payload);
  Buffer.contents b

type header = {
  version : int;
  arch_fp : string;
  kernel_digest : string;
  seed : int;
  payload : string;
}

(* Parse and integrity-check one artifact file's bytes: magic, framing,
   and the payload digest.  Key/version judgement is left to callers
   ([load] compares against its expectation, [scan] classifies). *)
let parse_artifact content =
  if String.length content < 4 || String.sub content 0 4 <> magic then
    Error "bad magic"
  else
    match
      let r = Wire.reader ~pos:4 content in
      let version = Wire.r_int r in
      let arch_fp = Wire.r_str r in
      let kernel_digest = Wire.r_str r in
      let seed = Wire.r_int r in
      let payload = Wire.r_str r in
      let digest = Wire.r_str r in
      if not (Wire.at_end r) then Error "trailing garbage"
      else if Digest.string payload <> digest then Error "payload digest mismatch"
      else Ok { version; arch_fp; kernel_digest; seed; payload }
    with
    | r -> r
    | exception Wire.Corrupt e -> Error e

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception (Sys_error _ | End_of_file) -> None)

(* ----- load / save ----- *)

let decode_keyed (key : key) arch (k : Cgra_kernels.Kernels.t) content =
  match parse_artifact content with
  | Error _ as e -> e
  | Ok h ->
      if h.version <> Codec.format_version then
        Error (Printf.sprintf "format version %d (want %d)" h.version
                 Codec.format_version)
      else if h.arch_fp <> key.arch_fp then Error "arch fingerprint mismatch"
      else if h.kernel_digest <> key.kernel_digest then
        Error "kernel digest mismatch"
      else if h.seed <> key.seed then Error "seed mismatch"
      else (
        match Codec.binary_of_payload ~arch ~graph:k.graph h.payload with
        | Error _ as e -> e
        | Ok (name, _, _) when name <> k.name ->
            Error (Printf.sprintf "artifact names kernel %s, not %s" name k.name)
        | Ok (name, base, paged) ->
            Ok { Binary.name; graph = k.graph; base; paged })

let decode ~seed arch k content = decode_keyed (key_of ~seed arch k) arch k content

let load t ~seed arch (k : Cgra_kernels.Kernels.t) =
  let key = key_of ~seed arch k in
  match read_file (Filename.concat t.root key.rel_path) with
  | None ->
      Atomic.incr t.load_misses;
      None
  | Some content -> (
      match decode_keyed key arch k content with
      | Ok b ->
          Atomic.incr t.load_hits;
          Some b
      | Error _ ->
          (* corrupt / truncated / stale / misfiled: reject, let the
             caller recompile (and eventually re-publish over it) *)
          Atomic.incr t.rejects;
          None)

let save t ~seed arch (k : Cgra_kernels.Kernels.t) (b : Binary.t) =
  let key = key_of ~seed arch k in
  let payload = Codec.binary_payload ~name:b.Binary.name ~base:b.Binary.base ~paged:b.Binary.paged in
  let bytes =
    artifact_bytes ~arch_fp:key.arch_fp ~kernel_digest:key.kernel_digest ~seed ~payload
  in
  let path = Filename.concat t.root key.rel_path in
  (* temp-then-rename so concurrent readers (and writers racing on the
     same key) only ever observe complete artifacts; the tmp name is
     unique per process x handle x write *)
  let tmp =
    Printf.sprintf "%s.tmp-%d-%d" path (Unix.getpid ())
      (Atomic.fetch_and_add t.tmp_seq 1)
  in
  match
    mkdir_p (Filename.dirname path);
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc bytes);
    Sys.rename tmp path
  with
  | () -> Atomic.incr t.saves
  | exception (Sys_error _ | Unix.Unix_error _) ->
      (if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
      Atomic.incr t.save_failures

(* ----- Binary tier wiring ----- *)

let install t =
  Binary.set_store
    (Some
       {
         Binary.tier_load = (fun ~seed arch k -> load t ~seed arch k);
         tier_save = (fun ~seed arch k b -> save t ~seed arch k b);
       })

let uninstall () = Binary.set_store None

(* ----- audit: scan / stats / gc ----- *)

type artifact_status =
  | Intact
  | Stale_version of int
  | Corrupt of string

let artifact_files t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> []
  | shards ->
      Array.to_list shards
      |> List.concat_map (fun shard ->
             let d = Filename.concat t.root shard in
             if not (Sys.is_directory d) then []
             else
               Array.to_list (Sys.readdir d)
               |> List.filter_map (fun f ->
                      if Filename.check_suffix f extension then
                        Some (Filename.concat shard f)
                      else None))
      |> List.sort String.compare

let status_of t rel =
  match read_file (Filename.concat t.root rel) with
  | None -> Corrupt "unreadable"
  | Some content -> (
      match parse_artifact content with
      | Error e -> Corrupt e
      | Ok h ->
          if h.version <> Codec.format_version then Stale_version h.version
          else
            (* content address must match the key the header claims *)
            let expect =
              rel_path_of_hash
                (key_hash ~version:h.version ~arch_fp:h.arch_fp
                   ~kernel_digest:h.kernel_digest ~seed:h.seed)
            in
            if expect <> rel then
              Corrupt (Printf.sprintf "misfiled (key addresses %s)" expect)
            else Intact)

let scan t = List.map (fun rel -> (rel, status_of t rel)) (artifact_files t)

type stats = {
  artifacts : int;
  bytes : int;
  intact : int;
  stale : int;
  corrupt : int;
}

let file_size path = match (Unix.stat path).Unix.st_size with s -> s | exception Unix.Unix_error _ -> 0

let stats t =
  List.fold_left
    (fun acc (rel, status) ->
      let sz = file_size (Filename.concat t.root rel) in
      {
        artifacts = acc.artifacts + 1;
        bytes = acc.bytes + sz;
        intact = (acc.intact + match status with Intact -> 1 | _ -> 0);
        stale = (acc.stale + match status with Stale_version _ -> 1 | _ -> 0);
        corrupt = (acc.corrupt + match status with Corrupt _ -> 1 | _ -> 0);
      })
    { artifacts = 0; bytes = 0; intact = 0; stale = 0; corrupt = 0 }
    (scan t)

let gc t =
  List.fold_left
    (fun (removed, freed) (rel, status) ->
      match status with
      | Intact -> (removed, freed)
      | Stale_version _ | Corrupt _ -> (
          let path = Filename.concat t.root rel in
          let sz = file_size path in
          match Sys.remove path with
          | () -> (removed + 1, freed + sz)
          | exception Sys_error _ -> (removed, freed)))
    (0, 0) (scan t)
