open Cgra_mapper

type t = {
  name : string;
  graph : Cgra_dfg.Graph.t;
  base : Mapping.t;
  paged : Mapping.t;
}

let ii_base t = t.base.Mapping.ii

let ii_paged t = t.paged.Mapping.ii

let pages_used t = Mapping.n_pages_used t.paged

let iteration_cycles t ~pages =
  if pages <= 0 then invalid_arg "Binary.iteration_cycles: pages <= 0";
  Transform.ii_q ~ii_p:(ii_paged t) ~n_used:(pages_used t) ~target_pages:pages

(* ----- compile cache ----- *)

(* The canonical field-by-field arch encoding, NOT [Cgra.pp]: the pretty
   printer's wording and line wrapping are free to drift, while cache
   keys — in-memory and, through [Cgra_store], on disk — must not.  The
   kernel name suffices for the in-memory tier because the bundled suite
   is a fixed set of named graphs; the disk tier additionally keys on a
   digest of the graph structure. *)
let fingerprint arch = Cgra_arch.Cgra.fingerprint arch

type store_tier = {
  tier_load : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t option;
  tier_save : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t -> unit;
}

type stats = { mem_hits : int; disk_hits : int; compiles : int; stores : int }

let cache : (string * string * int, (t, string) result) Hashtbl.t =
  Hashtbl.create 64

let cache_lock = Mutex.create ()

let store : store_tier option Atomic.t = Atomic.make None

let set_store t = Atomic.set store t

let mem_hits = Atomic.make 0

let disk_hits = Atomic.make 0

let compiles = Atomic.make 0

let stores = Atomic.make 0

let stats () =
  {
    mem_hits = Atomic.get mem_hits;
    disk_hits = Atomic.get disk_hits;
    compiles = Atomic.get compiles;
    stores = Atomic.get stores;
  }

let reset_stats () =
  Atomic.set mem_hits 0;
  Atomic.set disk_hits 0;
  Atomic.set compiles 0;
  Atomic.set stores 0

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock;
  Scheduler.clear_shared ()

let compile_uncached ~seed ?pool ?trace arch (k : Cgra_kernels.Kernels.t) =
  match Scheduler.map ~seed ?pool ?trace Unconstrained arch k.graph with
  | Error e -> Error e
  | Ok base -> (
      match Scheduler.map ~seed ?pool ?trace Paged arch k.graph with
      | Error e -> Error e
      | Ok paged -> Ok { name = k.name; graph = k.graph; base; paged })

let memoize key r =
  Mutex.lock cache_lock;
  Hashtbl.replace cache key r;
  Mutex.unlock cache_lock

let compile ?(seed = 0) ?pool ?trace arch (k : Cgra_kernels.Kernels.t) =
  let key = (fingerprint arch, k.name, seed) in
  let cached =
    Mutex.lock cache_lock;
    let r = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    r
  in
  match cached with
  | Some r ->
      Atomic.incr mem_hits;
      r
  | None -> (
      (* Both slow tiers run outside the lock: two domains may briefly
         duplicate a disk load or a compile, but the result is
         deterministic per key so either copy is interchangeable.  The
         pool width is deliberately absent from the cache key — raced and
         sequential compiles are bit-identical (Scheduler.map's
         determinism contract), so they memoize to the same entry. *)
      let disk =
        match Atomic.get store with
        | None -> None
        | Some tier -> tier.tier_load ~seed arch k
      in
      match disk with
      | Some b ->
          Atomic.incr disk_hits;
          let r = Ok b in
          memoize key r;
          r
      | None ->
          Atomic.incr compiles;
          let r = compile_uncached ~seed ?pool ?trace arch k in
          (match (r, Atomic.get store) with
          | Ok b, Some tier ->
              tier.tier_save ~seed arch k b;
              Atomic.incr stores
          | Ok _, None | Error _, _ -> ());
          memoize key r;
          r)

let compile_suite ?(seed = 0) ?pool ?trace arch =
  (* One kernel at a time — with [pool], each kernel races each II level
     of its scheduling ladder across the whole pool: the attempts of a
     level have near-uniform cost, so racing them load-balances better
     than one-kernel-per-domain (kernel compile times vary by an order
     of magnitude).  The walk
     short-circuits on the first [Error], so a failing early kernel does
     not pay for compiling the rest of the suite; the reported error —
     the first in suite order — is unchanged. *)
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | k :: rest -> (
        match compile ~seed ?pool ?trace arch k with
        | Error _ as e -> e
        | Ok b -> go (b :: acc) rest)
  in
  go [] Cgra_kernels.Kernels.all
