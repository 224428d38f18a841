open Trace

let range_json (r : page_range) =
  Json.Obj [ ("base", Json.num_of_int r.base); ("len", Json.num_of_int r.len) ]

let kind_json p = Json.Str (kind_name p)

let reshape_kind_name = function
  | Shrink -> "shrink"
  | Expand -> "expand"
  | Move -> "move"

let payload_fields = function
  | Run_begin r ->
      [
        ("mode", Json.Str r.mode);
        ("total_pages", Json.num_of_int r.total_pages);
        ("threads", Json.num_of_int r.n_threads);
        ("policy", Json.Str r.policy);
        ("reconfig_cost", Json.Num r.reconfig_cost);
        ("rows", Json.num_of_int r.rows);
        ("mem_ports", Json.num_of_int r.mem_ports);
      ]
  | Run_end r -> [ ("makespan", Json.Num r.makespan) ]
  | Thread_arrival r ->
      [ ("thread", Json.num_of_int r.thread); ("segments", Json.num_of_int r.segments) ]
  | Thread_finish r -> [ ("thread", Json.num_of_int r.thread) ]
  | Kernel_request r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("kernel", Json.Str r.kernel);
        ("iterations", Json.num_of_int r.iterations);
        ("ops", Json.num_of_int r.ops);
        ("mem", Json.num_of_int r.mem);
        ("desired", Json.num_of_int r.desired);
      ]
  | Kernel_grant r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("kernel", Json.Str r.kernel);
        ("range", range_json r.range);
        ("shrunk", Json.Bool r.shrunk);
        ("cost", Json.Num r.cost);
        ("rate", Json.Num r.rate);
      ]
  | Kernel_stall r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("kernel", Json.Str r.kernel);
        ("queue_depth", Json.num_of_int r.queue_depth);
      ]
  | Kernel_release r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("kernel", Json.Str r.kernel);
        ("range", range_json r.range);
      ]
  | Reshape r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("reshape", Json.Str (reshape_kind_name r.kind));
        ("before", range_json r.before);
        ("after", range_json r.after);
        ("pages_rewritten", Json.num_of_int r.pages_rewritten);
        ("cost", Json.Num r.cost);
        ("rate", Json.Num r.rate);
      ]
  | Occupancy r ->
      [
        ("thread", Json.num_of_int r.thread);
        ("pages", Json.num_of_int r.pages);
        ("elapsed", Json.Num r.elapsed);
      ]
  | Alloc_decision r ->
      [
        ("client", Json.num_of_int r.client);
        ("desired", Json.num_of_int r.desired);
        ( "granted",
          match r.granted with Some g -> range_json g | None -> Json.Null );
        ( "considered",
          Json.Arr
            (List.map
               (fun (what, range) ->
                 Json.Obj [ ("what", Json.Str what); ("range", range_json range) ])
               r.considered) );
      ]
  | Farm_begin r ->
      [
        ("shards", Json.num_of_int r.shards);
        ("tenants", Json.num_of_int r.tenants);
        ("queue_bound", Json.num_of_int r.queue_bound);
        ("max_resident", Json.num_of_int r.max_resident);
        ("requests", Json.num_of_int r.requests);
      ]
  | Farm_request r ->
      [
        ("req", Json.num_of_int r.req);
        ("tenant", Json.num_of_int r.tenant);
        ("kernel", Json.Str r.kernel);
        ("iterations", Json.num_of_int r.iterations);
      ]
  | Farm_reject r ->
      [
        ("req", Json.num_of_int r.req);
        ("tenant", Json.num_of_int r.tenant);
        ("queue_depth", Json.num_of_int r.queue_depth);
      ]
  | Farm_admit r ->
      [
        ("req", Json.num_of_int r.req);
        ("tenant", Json.num_of_int r.tenant);
        ("shard", Json.num_of_int r.shard);
      ]
  | Farm_resident r ->
      [ ("req", Json.num_of_int r.req); ("shard", Json.num_of_int r.shard) ]
  | Farm_retire r ->
      [
        ("req", Json.num_of_int r.req);
        ("tenant", Json.num_of_int r.tenant);
        ("shard", Json.num_of_int r.shard);
        ("latency", Json.Num r.latency);
      ]
  | Farm_end r ->
      [
        ("makespan", Json.Num r.makespan);
        ("retired", Json.num_of_int r.retired);
        ("rejected", Json.num_of_int r.rejected);
      ]
  | Counter r -> [ ("name", Json.Str r.name); ("value", Json.Num r.value) ]
  | Span_begin r -> [ ("name", Json.Str r.name) ]
  | Span_end r -> [ ("name", Json.Str r.name) ]
  | Mark r -> [ ("name", Json.Str r.name); ("detail", Json.Str r.detail) ]

let event_json (e : event) =
  Json.Obj
    (("seq", Json.num_of_int e.seq)
    :: ("t", Json.Num e.time)
    :: ("kind", kind_json e.payload)
    :: payload_fields e.payload)

let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let kinds events =
  List.sort_uniq String.compare
    (List.map (fun (e : event) -> kind_name e.payload) events)

(* ----- JSONL import ----- *)

(* Total inverse of [event_json], so post-hoc analyzers ([Cgra_prof])
   can consume archived traces without the producing process.  Every
   malformed line is an [Error] with its 1-based line number — never an
   exception. *)

let ( let* ) = Result.bind

let field name v =
  match Json.member name v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing field %S" name)

let float_field name v =
  let* x = field name v in
  match Json.to_float x with
  | Some f when Float.is_finite f -> Ok f
  | Some _ | None -> Error (Printf.sprintf "field %S is not a finite number" name)

let int_field name v =
  let* x = field name v in
  match Json.to_int x with
  | Some n -> Ok n
  | None ->
      Error
        (Printf.sprintf "field %S is not an integer within 2^53: %s" name
           (Json.to_string x))

(* counts, sizes, and page-range bounds *)
let count_field name v =
  let* n = int_field name v in
  if n >= 0 then Ok n else Error (Printf.sprintf "field %S is negative: %d" name n)

let str_field name v =
  let* x = field name v in
  match Json.to_str x with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let bool_field name v =
  let* x = field name v in
  match x with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S is not a boolean" name)

let range_of_json name v =
  let* x = field name v in
  let* base = count_field "base" x in
  let* len = count_field "len" x in
  Ok { base; len }

let reshape_kind_of_name = function
  | "shrink" -> Ok Shrink
  | "expand" -> Ok Expand
  | "move" -> Ok Move
  | s -> Error (Printf.sprintf "unknown reshape kind %S" s)

let payload_of_json kind v =
  match kind with
  | "run_begin" ->
      let* mode = str_field "mode" v in
      let* total_pages = count_field "total_pages" v in
      let* n_threads = count_field "threads" v in
      let* policy = str_field "policy" v in
      let* reconfig_cost = float_field "reconfig_cost" v in
      let* rows = count_field "rows" v in
      let* mem_ports = count_field "mem_ports" v in
      Ok (Run_begin { mode; total_pages; n_threads; policy; reconfig_cost;
                      rows; mem_ports })
  | "run_end" ->
      let* makespan = float_field "makespan" v in
      Ok (Run_end { makespan })
  | "thread_arrival" ->
      let* thread = int_field "thread" v in
      let* segments = count_field "segments" v in
      Ok (Thread_arrival { thread; segments })
  | "thread_finish" ->
      let* thread = int_field "thread" v in
      Ok (Thread_finish { thread })
  | "kernel_request" ->
      let* thread = int_field "thread" v in
      let* kernel = str_field "kernel" v in
      let* iterations = count_field "iterations" v in
      let* ops = count_field "ops" v in
      let* mem = count_field "mem" v in
      let* desired = count_field "desired" v in
      Ok (Kernel_request { thread; kernel; iterations; ops; mem; desired })
  | "kernel_grant" ->
      let* thread = int_field "thread" v in
      let* kernel = str_field "kernel" v in
      let* range = range_of_json "range" v in
      let* shrunk = bool_field "shrunk" v in
      let* cost = float_field "cost" v in
      let* rate = float_field "rate" v in
      Ok (Kernel_grant { thread; kernel; range; shrunk; cost; rate })
  | "kernel_stall" ->
      let* thread = int_field "thread" v in
      let* kernel = str_field "kernel" v in
      let* queue_depth = count_field "queue_depth" v in
      Ok (Kernel_stall { thread; kernel; queue_depth })
  | "kernel_release" ->
      let* thread = int_field "thread" v in
      let* kernel = str_field "kernel" v in
      let* range = range_of_json "range" v in
      Ok (Kernel_release { thread; kernel; range })
  | "reshape" ->
      let* thread = int_field "thread" v in
      let* kind_name = str_field "reshape" v in
      let* kind = reshape_kind_of_name kind_name in
      let* before = range_of_json "before" v in
      let* after = range_of_json "after" v in
      let* pages_rewritten = count_field "pages_rewritten" v in
      let* cost = float_field "cost" v in
      let* rate = float_field "rate" v in
      Ok (Reshape { thread; kind; before; after; pages_rewritten; cost; rate })
  | "occupancy" ->
      let* thread = int_field "thread" v in
      let* pages = count_field "pages" v in
      let* elapsed = float_field "elapsed" v in
      Ok (Occupancy { thread; pages; elapsed })
  | "alloc_decision" ->
      let* client = int_field "client" v in
      let* desired = count_field "desired" v in
      let* granted =
        let* g = field "granted" v in
        match g with
        | Json.Null -> Ok None
        | _ ->
            let* r = range_of_json "granted" v in
            Ok (Some r)
      in
      let* considered =
        let* c = field "considered" v in
        match c with
        | Json.Arr entries ->
            List.fold_left
              (fun acc e ->
                let* acc = acc in
                let* what = str_field "what" e in
                let* range = range_of_json "range" e in
                Ok ((what, range) :: acc))
              (Ok []) entries
            |> Result.map List.rev
        | _ -> Error "field \"considered\" is not an array"
      in
      Ok (Alloc_decision { client; desired; granted; considered })
  | "farm_begin" ->
      let* shards = count_field "shards" v in
      let* tenants = count_field "tenants" v in
      let* queue_bound = count_field "queue_bound" v in
      let* max_resident = count_field "max_resident" v in
      let* requests = count_field "requests" v in
      Ok (Farm_begin { shards; tenants; queue_bound; max_resident; requests })
  | "farm_request" ->
      let* req = int_field "req" v in
      let* tenant = int_field "tenant" v in
      let* kernel = str_field "kernel" v in
      let* iterations = count_field "iterations" v in
      Ok (Farm_request { req; tenant; kernel; iterations })
  | "farm_reject" ->
      let* req = int_field "req" v in
      let* tenant = int_field "tenant" v in
      let* queue_depth = count_field "queue_depth" v in
      Ok (Farm_reject { req; tenant; queue_depth })
  | "farm_admit" ->
      let* req = int_field "req" v in
      let* tenant = int_field "tenant" v in
      let* shard = int_field "shard" v in
      Ok (Farm_admit { req; tenant; shard })
  | "farm_resident" ->
      let* req = int_field "req" v in
      let* shard = int_field "shard" v in
      Ok (Farm_resident { req; shard })
  | "farm_retire" ->
      let* req = int_field "req" v in
      let* tenant = int_field "tenant" v in
      let* shard = int_field "shard" v in
      let* latency = float_field "latency" v in
      Ok (Farm_retire { req; tenant; shard; latency })
  | "farm_end" ->
      let* makespan = float_field "makespan" v in
      let* retired = count_field "retired" v in
      let* rejected = count_field "rejected" v in
      Ok (Farm_end { makespan; retired; rejected })
  | "counter" ->
      let* name = str_field "name" v in
      let* value = float_field "value" v in
      Ok (Counter { name; value })
  | "span_begin" ->
      let* name = str_field "name" v in
      Ok (Span_begin { name })
  | "span_end" ->
      let* name = str_field "name" v in
      Ok (Span_end { name })
  | "mark" ->
      let* name = str_field "name" v in
      let* detail = str_field "detail" v in
      Ok (Mark { name; detail })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let event_of_json v =
  let* seq = count_field "seq" v in
  let* time = float_field "t" v in
  let* kind = str_field "kind" v in
  let* payload = payload_of_json kind v in
  Ok { seq; time; payload }

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else
          let parsed =
            let* v = Json.parse line in
            event_of_json v
          in
          (match parsed with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

(* ----- Chrome trace_event ----- *)

(* Track layout: pid 1 carries one row per simulated thread (kernel
   occupancy slices and wait slices), pid 2 carries the runtime itself
   (allocator decisions, spans, marks) and the counter tracks. *)

let chrome ?(process_name = "cgra") events =
  let out = ref [] in
  let push v = out := v :: !out in
  let ev ?(pid = 1) ?(tid = 0) ?args ~cat ~name ~ph ~ts () =
    push
      (Json.Obj
         ([
            ("name", Json.Str name);
            ("cat", Json.Str cat);
            ("ph", Json.Str ph);
            ("ts", Json.Num ts);
            ("pid", Json.num_of_int pid);
            ("tid", Json.num_of_int tid);
          ]
         @ match args with None -> [] | Some a -> [ ("args", Json.Obj a) ]))
  in
  let metadata ~pid ?tid which name =
    push
      (Json.Obj
         ([
            ("name", Json.Str which);
            ("ph", Json.Str "M");
            ("pid", Json.num_of_int pid);
          ]
         @ (match tid with Some t -> [ ("tid", Json.num_of_int t) ] | None -> [])
         @ [ ("args", Json.Obj [ ("name", Json.Str name) ]) ]))
  in
  metadata ~pid:1 "process_name" (process_name ^ " threads");
  metadata ~pid:2 "process_name" (process_name ^ " runtime");
  let counter ~ts name value =
    ev ~pid:2 ~cat:"counter" ~name ~ph:"C" ~ts
      ~args:[ ("value", Json.num_of_int value) ]
      ()
  in
  (* derived running totals for the counter tracks *)
  let allocated = ref 0 in
  let queue_depth = ref 0 in
  (* pid 3 (front-end requests) only appears when farm events do, so
     traces without them export byte-identically to before *)
  let farm_pid_announced = ref false in
  let farm_ev ?tid ?args ~cat ~name ~ph ~ts () =
    if not !farm_pid_announced then begin
      farm_pid_announced := true;
      metadata ~pid:3 "process_name" (process_name ^ " farm")
    end;
    ev ~pid:3 ?tid ?args ~cat ~name ~ph ~ts ()
  in
  let waiting : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let handle (e : event) =
    let ts = e.time in
    let cat = kind_name e.payload in
    match e.payload with
    | Run_begin r ->
        ev ~cat ~name:(Printf.sprintf "run %s" r.mode) ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Run_end _ ->
        ev ~cat ~name:"run end" ~ph:"i" ~ts ~args:(payload_fields e.payload) ()
    | Thread_arrival r ->
        metadata ~pid:1 ~tid:r.thread "thread_name"
          (Printf.sprintf "thread %d" r.thread);
        ev ~tid:r.thread ~cat ~name:"arrival" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Thread_finish r ->
        ev ~tid:r.thread ~cat ~name:"finish" ~ph:"i" ~ts ()
    | Kernel_request r ->
        ev ~tid:r.thread ~cat ~name:("request " ^ r.kernel) ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Kernel_stall r ->
        Hashtbl.replace waiting r.thread r.kernel;
        incr queue_depth;
        ev ~tid:r.thread ~cat ~name:("wait:" ^ r.kernel) ~ph:"B" ~ts
          ~args:(payload_fields e.payload) ();
        counter ~ts "queue_depth" !queue_depth
    | Kernel_grant r ->
        (match Hashtbl.find_opt waiting r.thread with
        | Some k ->
            Hashtbl.remove waiting r.thread;
            decr queue_depth;
            ev ~tid:r.thread ~cat ~name:("wait:" ^ k) ~ph:"E" ~ts ();
            counter ~ts "queue_depth" !queue_depth
        | None -> ());
        allocated := !allocated + r.range.len;
        ev ~tid:r.thread ~cat ~name:r.kernel ~ph:"B" ~ts
          ~args:(payload_fields e.payload) ();
        counter ~ts "allocated_pages" !allocated
    | Kernel_release r ->
        allocated := !allocated - r.range.len;
        ev ~tid:r.thread ~cat ~name:r.kernel ~ph:"E" ~ts ();
        counter ~ts "allocated_pages" !allocated
    | Reshape r ->
        allocated := !allocated + r.after.len - r.before.len;
        ev ~tid:r.thread ~cat
          ~name:(reshape_kind_name r.kind)
          ~ph:"i" ~ts ~args:(payload_fields e.payload) ();
        counter ~ts "allocated_pages" !allocated
    | Occupancy _ -> ()  (* already visible as slice durations *)
    | Alloc_decision r ->
        ev ~pid:2 ~cat
          ~name:(Printf.sprintf "alloc c%d" r.client)
          ~ph:"i" ~ts ~args:(payload_fields e.payload) ()
    | Farm_begin _ ->
        farm_ev ~cat ~name:"farm begin" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Farm_request r ->
        farm_ev ~tid:r.req ~cat ~name:("queued " ^ r.kernel) ~ph:"B" ~ts
          ~args:(payload_fields e.payload) ()
    | Farm_reject r ->
        farm_ev ~tid:r.req ~cat ~name:"queued" ~ph:"E" ~ts ();
        farm_ev ~tid:r.req ~cat ~name:"reject" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Farm_admit r ->
        farm_ev ~tid:r.req ~cat ~name:"queued" ~ph:"E" ~ts ();
        farm_ev ~tid:r.req ~cat
          ~name:(Printf.sprintf "shard %d" r.shard)
          ~ph:"B" ~ts ~args:(payload_fields e.payload) ()
    | Farm_resident r ->
        farm_ev ~tid:r.req ~cat ~name:"resident" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Farm_retire r ->
        farm_ev ~tid:r.req ~cat ~name:(Printf.sprintf "shard %d" r.shard)
          ~ph:"E" ~ts ();
        farm_ev ~tid:r.req ~cat ~name:"retire" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Farm_end _ ->
        farm_ev ~cat ~name:"farm end" ~ph:"i" ~ts
          ~args:(payload_fields e.payload) ()
    | Counter r ->
        ev ~pid:2 ~cat ~name:r.name ~ph:"C" ~ts
          ~args:[ ("value", Json.Num r.value) ]
          ()
    | Span_begin r -> ev ~pid:2 ~cat ~name:r.name ~ph:"B" ~ts ()
    | Span_end r -> ev ~pid:2 ~cat ~name:r.name ~ph:"E" ~ts ()
    | Mark r ->
        ev ~pid:2 ~cat ~name:r.name ~ph:"i" ~ts
          ~args:[ ("detail", Json.Str r.detail) ]
          ()
  in
  List.iter handle events;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.rev !out));
         ("displayTimeUnit", Json.Str "ms");
         ("otherData", Json.Obj [ ("clock", Json.Str "cgra-cycles") ]);
       ])
