(* Spans recorded from outside the program, around the calls into each
   layer's public functions, on the calling thread's CPU clock (the
   benchmark times one domain; see main.ml).  A span has a name, a detail
   (which config/kernel/shard it covered), start and end times, and the
   span that enclosed it; every span under one root (one compile pass,
   one launch, one Farm.run) shares the root's group id.  Spans are kept
   in memory and written out once, when the run ends.  When recording is
   off, [with_span] is a plain call. *)

type t = {
  id : int;
  group : int;
  parent : int;  (** 0 for a root *)
  name : string;
  detail : string;
  start : float;
  stop : float;
}

let enabled = ref false

let recorded : t list ref = ref []

let stack : (int * int) list ref = ref []  (* (span id, group), innermost first *)

let next_id = ref 0

let with_span ?(root = false) ?(detail = "") name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let group, parent =
      match !stack with
      | (p, g) :: _ when not root -> (g, p)
      | _ -> (id, 0)
    in
    let saved = !stack in
    stack := (id, group) :: saved;
    let start = Clock.cpu () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Clock.cpu () in
        stack := saved;
        recorded := { id; group; parent; name; detail; start; stop } :: !recorded)
      f
  end

let all () = List.rev !recorded

let duration s = s.stop -. s.start

(* Root span name of every group, for filtering children by what
   enclosed them. *)
let roots spans =
  let h = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent = 0 then Hashtbl.replace h s.group s.name) spans;
  h

let write path ~origin spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"group\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"detail\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.group s.id s.parent s.name s.detail
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6))
    spans;
  close_out oc
