open Cgra_arch
open Cgra_dfg
open Cgra_mapper

(* 2: bandwidth-aware scheduling — the wire shape is unchanged, but the
   scheduler now produces different (better) mappings for the same
   (arch, kernel, seed) key, so stored artifacts from version 1 must be
   re-addressed rather than served. *)
let format_version = 2

(* ----- primitive writers: zigzag LEB128 varints, length-prefixed
   strings.  Every composite encoder below is built from these two, so
   the whole format is byte-stable by construction. ----- *)

let w_int b n =
  (* zigzag: small magnitudes (either sign) stay one byte *)
  let u = ref ((n lsl 1) lxor (n asr 62)) in
  let continue_ = ref true in
  while !continue_ do
    let byte = !u land 0x7f in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_int b (if v then 1 else 0)

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_opt b f = function
  | None -> w_int b 0
  | Some x ->
      w_int b 1;
      f b x

(* ----- primitive readers.  [Corrupt] is internal; the public decoders
   catch it and return [Error], so hostile bytes can never raise. ----- *)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let r_int r =
  let v = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if r.pos >= String.length r.data then corrupt "truncated varint";
    if !shift > 62 then corrupt "varint overflow";
    let byte = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := byte land 0x80 <> 0
  done;
  (!v lsr 1) lxor (- (!v land 1))

let r_str r =
  let n = r_int r in
  (* compared without adding, so a huge length cannot wrap past the check *)
  if n < 0 || n > String.length r.data - r.pos then corrupt "truncated string";
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_bool r = match r_int r with 0 -> false | 1 -> true | n -> corrupt "bad bool %d" n

let r_list r f =
  let n = r_int r in
  if n < 0 then corrupt "negative list length %d" n;
  List.init n (fun _ -> f r)

let r_opt r f = match r_int r with 0 -> None | 1 -> Some (f r) | n -> corrupt "bad option tag %d" n

let finish r v =
  if r.pos <> String.length r.data then corrupt "trailing garbage (%d of %d bytes read)" r.pos (String.length r.data);
  v

let decoding what f s =
  match f { data = s; pos = 0 } with
  | v -> Ok v
  | exception Corrupt e -> Error (Printf.sprintf "%s: %s" what e)

(* ----- operations ----- *)

let cmp_tag = function Op.Lt -> 0 | Le -> 1 | Eq -> 2 | Ne -> 3 | Gt -> 4 | Ge -> 5

let cmp_of_tag = function
  | 0 -> Op.Lt | 1 -> Le | 2 -> Eq | 3 -> Ne | 4 -> Gt | 5 -> Ge
  | n -> corrupt "bad cmp tag %d" n

let w_op b (op : Op.t) =
  let tag n = w_int b n in
  match op with
  | Const k -> tag 0; w_int b k
  | Iter -> tag 1
  | Add -> tag 2
  | Sub -> tag 3
  | Mul -> tag 4
  | Shl -> tag 5
  | Shr -> tag 6
  | And -> tag 7
  | Or -> tag 8
  | Xor -> tag 9
  | Min -> tag 10
  | Max -> tag 11
  | Abs -> tag 12
  | Neg -> tag 13
  | Cmp c -> tag 14; w_int b (cmp_tag c)
  | Select -> tag 15
  | Clamp8 -> tag 16
  | Load { array; offset; stride } -> tag 17; w_str b array; w_int b offset; w_int b stride
  | Load_idx { array } -> tag 18; w_str b array
  | Store { array; offset; stride } -> tag 19; w_str b array; w_int b offset; w_int b stride
  | Store_idx { array } -> tag 20; w_str b array
  | Route -> tag 21

let r_op r : Op.t =
  match r_int r with
  | 0 -> Const (r_int r)
  | 1 -> Iter
  | 2 -> Add
  | 3 -> Sub
  | 4 -> Mul
  | 5 -> Shl
  | 6 -> Shr
  | 7 -> And
  | 8 -> Or
  | 9 -> Xor
  | 10 -> Min
  | 11 -> Max
  | 12 -> Abs
  | 13 -> Neg
  | 14 -> Cmp (cmp_of_tag (r_int r))
  | 15 -> Select
  | 16 -> Clamp8
  | 17 ->
      let array = r_str r in
      let offset = r_int r in
      let stride = r_int r in
      Load { array; offset; stride }
  | 18 -> Load_idx { array = r_str r }
  | 19 ->
      let array = r_str r in
      let offset = r_int r in
      let stride = r_int r in
      Store { array; offset; stride }
  | 20 -> Store_idx { array = r_str r }
  | 21 -> Route
  | n -> corrupt "bad op tag %d" n

(* ----- canonical kernel identity ----- *)

let graph_bytes g =
  let b = Buffer.create 256 in
  w_str b (Graph.name g);
  w_int b (Graph.n_nodes g);
  List.iter (fun (n : Graph.node) -> w_op b n.op) (Graph.nodes g);
  w_list b
    (fun b (e : Graph.edge) ->
      w_int b e.src;
      w_int b e.dst;
      w_int b e.operand;
      w_int b e.distance)
    (Graph.edges g);
  Buffer.contents b

(* A graph is immutable, so its digest is computed once per graph and
   remembered for as long as the graph is alive: every store load keys
   on it.  Keys are compared physically and hashed by name, which is
   cheaper than hashing the structure; the table is not domain-safe on
   its own, hence the lock. *)
module Digests = Ephemeron.K1.Make (struct
  type t = Graph.t

  let equal = ( == )

  let hash g = Hashtbl.hash (Graph.name g)
end)

let digests = Digests.create 16

let digests_lock = Mutex.create ()

let graph_digest g =
  match Mutex.protect digests_lock (fun () -> Digests.find_opt digests g) with
  | Some d -> d
  | None ->
      let d = Digest.to_hex (Digest.string (graph_bytes g)) in
      Mutex.protect digests_lock (fun () -> Digests.replace digests g d);
      d

(* ----- mappings ----- *)

let w_placement b (p : Mapping.placement) =
  w_int b p.pe.Coord.row;
  w_int b p.pe.Coord.col;
  w_int b p.time

let r_placement ~(arch : Cgra.t) r : Mapping.placement =
  let row = r_int r in
  let col = r_int r in
  let time = r_int r in
  let pe = Coord.make ~row ~col in
  if not (Grid.in_bounds arch.grid pe) then
    corrupt "PE (%d,%d) outside the %dx%d grid" row col arch.grid.rows arch.grid.cols;
  { pe; time }

let w_mapping b (m : Mapping.t) =
  w_int b m.Mapping.ii;
  w_bool b m.Mapping.paged;
  w_int b (Array.length m.Mapping.placements);
  Array.iter (fun p -> w_opt b w_placement p) m.Mapping.placements;
  w_list b
    (fun b (route : Mapping.route) ->
      w_int b route.edge.Graph.src;
      w_int b route.edge.Graph.dst;
      w_int b route.edge.Graph.operand;
      w_int b route.edge.Graph.distance;
      w_list b w_placement route.hops)
    m.Mapping.routes

let r_mapping ~arch ~graph r : Mapping.t =
  let ii = r_int r in
  if ii < 1 then corrupt "ii %d < 1" ii;
  let paged = r_bool r in
  let n = r_int r in
  if n <> Graph.n_nodes graph then
    corrupt "placement count %d does not match the %d-node graph" n
      (Graph.n_nodes graph);
  (* only a constant, folded into its consumers' immediates, may be
     unplaced *)
  let placements =
    Array.init n (fun v ->
        let p = r_opt r (r_placement ~arch) in
        (match (p, (Graph.node graph v).op) with
        | Some _, _ | None, Op.Const _ -> ()
        | None, _ -> corrupt "non-constant node %d unplaced" v);
        p)
  in
  let routes =
    r_list r (fun r ->
        let src = r_int r in
        let dst = r_int r in
        let operand = r_int r in
        let distance = r_int r in
        let edge = { Graph.src; dst; operand; distance } in
        if src < 0 || src >= n || not (List.mem edge (Graph.succs graph src)) then
          corrupt "route for edge %d->%d absent from the graph" src dst;
        let hops = r_list r (r_placement ~arch) in
        { Mapping.edge; hops })
  in
  { Mapping.arch; graph; ii; placements; routes; paged }

let mapping_bytes m =
  let b = Buffer.create 512 in
  w_mapping b m;
  Buffer.contents b

let mapping_of_bytes ~arch ~graph s =
  decoding "mapping" (fun r -> finish r (r_mapping ~arch ~graph r)) s

(* ----- compiled binaries ----- *)

let binary_payload ~name ~base ~paged =
  let b = Buffer.create 1024 in
  w_str b name;
  w_mapping b base;
  w_mapping b paged;
  Buffer.contents b

let binary_of_payload ~arch ~graph s =
  decoding "binary" (fun r ->
      let name = r_str r in
      let base = r_mapping ~arch ~graph r in
      let paged = r_mapping ~arch ~graph r in
      finish r (name, base, paged))
    s

(* ----- context images ----- *)

let w_src b = function
  | Config.Imm k -> w_int b 0; w_int b k
  | Config.Self reg -> w_int b 1; w_int b reg
  | Config.Neigh (d, reg) ->
      w_int b 2;
      w_int b (match d with Coord.North -> 0 | East -> 1 | South -> 2 | West -> 3);
      w_int b reg

let r_src r =
  match r_int r with
  | 0 -> Config.Imm (r_int r)
  | 1 -> Config.Self (r_int r)
  | 2 ->
      let d =
        match r_int r with
        | 0 -> Coord.North | 1 -> East | 2 -> South | 3 -> West
        | n -> corrupt "bad direction tag %d" n
      in
      Config.Neigh (d, r_int r)
  | n -> corrupt "bad src tag %d" n

let w_context b (c : Config.context) =
  w_op b c.Config.op;
  w_list b
    (fun b (o : Config.operand) ->
      w_src b o.Config.sel;
      w_int b o.Config.valid_from)
    c.Config.srcs;
  w_opt b w_int c.Config.dst;
  w_int b c.Config.stage;
  w_opt b w_int c.Config.debug_node

let r_context r : Config.context =
  let op = r_op r in
  let srcs =
    r_list r (fun r ->
        let sel = r_src r in
        let valid_from = r_int r in
        { Config.sel; valid_from })
  in
  let dst = r_opt r r_int in
  let stage = r_int r in
  let debug_node = r_opt r r_int in
  { Config.op; srcs; dst; stage; debug_node }

let config_bytes (t : Config.t) =
  let b = Buffer.create 1024 in
  w_int b t.Config.ii;
  w_int b t.Config.rows;
  w_int b t.Config.cols;
  w_int b t.Config.reg_capacity;
  Array.iter (fun row -> Array.iter (fun c -> w_opt b w_context c) row) t.Config.contexts;
  Buffer.contents b

let config_of_bytes s =
  decoding "config" (fun r ->
      let ii = r_int r in
      let rows = r_int r in
      let cols = r_int r in
      let reg_capacity = r_int r in
      if ii < 1 || rows < 1 || cols < 1 || reg_capacity < 1 then
        corrupt "non-positive image dimensions";
      (* bound each factor before multiplying, so the product cannot wrap *)
      if rows > 1 lsl 20 || cols > 1 lsl 20 || rows * cols > 1 lsl 20 || ii > 1 lsl 20
      then corrupt "absurd image dimensions";
      let contexts =
        Array.init (rows * cols) (fun _ -> Array.init ii (fun _ -> r_opt r r_context))
      in
      finish r { Config.ii; rows; cols; reg_capacity; contexts })
    s

module Wire = struct
  let w_int = w_int

  let w_str = w_str

  type nonrec reader = reader

  exception Corrupt = Corrupt

  let reader ?(pos = 0) data = { data; pos }

  let r_int = r_int

  let r_str = r_str

  let at_end r = r.pos = String.length r.data
end
