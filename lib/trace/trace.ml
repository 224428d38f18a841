type page_range = { base : int; len : int }

type reshape_kind = Shrink | Expand | Move

type payload =
  | Run_begin of {
      mode : string;
      total_pages : int;
      n_threads : int;
      policy : string;
      reconfig_cost : float;
      rows : int;
      mem_ports : int;
    }
  | Run_end of { makespan : float }
  | Thread_arrival of { thread : int; segments : int }
  | Thread_finish of { thread : int }
  | Kernel_request of {
      thread : int;
      kernel : string;
      iterations : int;
      ops : int;
      mem : int;
      desired : int;
    }
  | Kernel_grant of {
      thread : int;
      kernel : string;
      range : page_range;
      shrunk : bool;
      cost : float;
      rate : float;
    }
  | Kernel_stall of { thread : int; kernel : string; queue_depth : int }
  | Kernel_release of { thread : int; kernel : string; range : page_range }
  | Reshape of {
      thread : int;
      kind : reshape_kind;
      before : page_range;
      after : page_range;
      pages_rewritten : int;
      cost : float;
      rate : float;
    }
  | Occupancy of { thread : int; pages : int; elapsed : float }
  | Alloc_decision of {
      client : int;
      desired : int;
      granted : page_range option;
      considered : (string * page_range) list;
    }
  | Farm_begin of {
      shards : int;
      tenants : int;
      queue_bound : int;
      max_resident : int;
      requests : int;
    }
  | Farm_request of { req : int; tenant : int; kernel : string; iterations : int }
  | Farm_reject of { req : int; tenant : int; queue_depth : int }
  | Farm_admit of { req : int; tenant : int; shard : int }
  | Farm_resident of { req : int; shard : int }
  | Farm_retire of { req : int; tenant : int; shard : int; latency : float }
  | Farm_end of { makespan : float; retired : int; rejected : int }
  | Counter of { name : string; value : float }
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Mark of { name : string; detail : string }

type event = { seq : int; time : float; payload : payload }

type state = {
  mutable rev_events : event list;
  mutable next_seq : int;
  mutable now : float;
}

type t = Null | On of state

let null = Null

let make () = On { rev_events = []; next_seq = 0; now = 0.0 }

let enabled = function Null -> false | On _ -> true

let set_clock t time = match t with Null -> () | On s -> s.now <- time

let clock = function Null -> 0.0 | On s -> s.now

let emit_at t ~time payload =
  match t with
  | Null -> ()
  | On s ->
      s.now <- time;
      s.rev_events <- { seq = s.next_seq; time; payload } :: s.rev_events;
      s.next_seq <- s.next_seq + 1

let emit t payload =
  match t with Null -> () | On s -> emit_at t ~time:s.now payload

let events = function Null -> [] | On s -> List.rev s.rev_events

let n_events = function Null -> 0 | On s -> s.next_seq

let with_span t name f =
  match t with
  | Null -> f ()
  | On _ ->
      emit t (Span_begin { name });
      Fun.protect ~finally:(fun () -> emit t (Span_end { name })) f

let kind_name = function
  | Run_begin _ -> "run_begin"
  | Run_end _ -> "run_end"
  | Thread_arrival _ -> "thread_arrival"
  | Thread_finish _ -> "thread_finish"
  | Kernel_request _ -> "kernel_request"
  | Kernel_grant _ -> "kernel_grant"
  | Kernel_stall _ -> "kernel_stall"
  | Kernel_release _ -> "kernel_release"
  | Reshape _ -> "reshape"
  | Occupancy _ -> "occupancy"
  | Alloc_decision _ -> "alloc_decision"
  | Farm_begin _ -> "farm_begin"
  | Farm_request _ -> "farm_request"
  | Farm_reject _ -> "farm_reject"
  | Farm_admit _ -> "farm_admit"
  | Farm_resident _ -> "farm_resident"
  | Farm_retire _ -> "farm_retire"
  | Farm_end _ -> "farm_end"
  | Counter _ -> "counter"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"
  | Mark _ -> "mark"
