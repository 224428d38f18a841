open Cgra_arch
open Cgra_core
module T = Cgra_trace.Trace

let fabrics = [ (4, 2); (6, 4); (8, 4) ]

let has_rule rule = function
  | Ok _ -> false
  | Error vs -> List.exists (fun (v : Meld.violation) -> v.rule = rule) vs

(* The coexec.* events the runtime emitted, held against the outcome it
   returned: span present, counters reproduce an accepted report exactly,
   one violation mark per error in order. *)
let trace_cross_check events outcome =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let spans =
    List.filter_map
      (fun (e : T.event) ->
        match e.payload with
        | T.Span_begin { name = "coexec.check" } -> Some `Begin
        | T.Span_end { name = "coexec.check" } -> Some `End
        | _ -> None)
      events
  in
  if not (List.mem `Begin spans && List.mem `End spans) then
    err "trace is missing the coexec.check span";
  let counter name =
    List.find_map
      (fun (e : T.event) ->
        match e.payload with
        | T.Counter c when c.name = name -> Some c.value
        | _ -> None)
      events
  in
  let marks =
    List.filter_map
      (fun (e : T.event) ->
        match e.payload with
        | T.Mark { name = "coexec.violation"; detail } -> Some detail
        | _ -> None)
      events
  in
  (match outcome with
  | Ok (rep : Cgra_sim.Coexec.report) ->
      if marks <> [] then
        err "accepted set emitted %d coexec.violation marks" (List.length marks);
      List.iter
        (fun (name, expected) ->
          match counter name with
          | None -> err "accepted set emitted no %s counter" name
          | Some v ->
              if compare (v : float) expected <> 0 then
                err "%s counter says %.17g, report says %.17g" name v expected)
        [
          ("coexec.residents", float_of_int rep.residents);
          ("coexec.hyperperiod", float_of_int rep.hyperperiod);
          ("coexec.ipc", rep.ipc);
          ("coexec.utilization", rep.utilization);
        ]
  | Error es ->
      if marks <> es then
        err "rejected set emitted %d coexec.violation marks for %d errors%s"
          (List.length marks) (List.length es)
          (if List.length marks = List.length es then " (details differ)" else ""));
  List.rev !errs

let one_case seed =
  let sets = ref 0 in
  let residents_n = ref 0 in
  let accepts = ref 0 in
  let rejects = ref 0 in
  let mutants = ref 0 in
  let failures = ref [] in
  let rng = Cgra_util.Rng.create ~seed in
  let ((size, page_pes) as fabric) =
    Cgra_util.Rng.choose rng (Array.of_list fabrics)
  in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        failures :=
          Printf.sprintf "seed %d (%dx%d p%d): %s" seed size size page_pes s
          :: !failures)
      fmt
  in
  let arch, suite = Os_fuzz.suite fabric in
  let binaries = Array.of_list suite in
  let total_pages = Cgra.n_pages arch in
  let policy =
    Cgra_util.Rng.choose rng
      [| Allocator.Halving; Allocator.Repack_equal; Allocator.Cost_halving |]
  in
  let al = Allocator.create ~policy ~total_pages () in
  let placed : (int, Binary.t) Hashtbl.t = Hashtbl.create 8 in
  let k = Cgra_util.Rng.int_in rng 1 4 in
  for client = 0 to k - 1 do
    let b = Cgra_util.Rng.choose rng binaries in
    match Allocator.request al ~client ~desired:(Binary.pages_used b) with
    | Some _ -> Hashtbl.replace placed client b
    | None -> ()
  done;
  (* random release / re-request churn, to fragment the page space *)
  for _ = 1 to Cgra_util.Rng.int_in rng 0 2 do
    let live =
      Hashtbl.fold (fun c _ acc -> c :: acc) placed [] |> List.sort compare
    in
    match live with
    | [] -> ()
    | _ ->
        let c = List.nth live (Cgra_util.Rng.int rng (List.length live)) in
        let b = Hashtbl.find placed c in
        Allocator.release al ~client:c;
        if Allocator.request al ~client:c ~desired:(Binary.pages_used b) = None
        then Hashtbl.remove placed c
  done;
  (* fold every survivor into its grant; these are the melded residents *)
  let residents =
    List.filter_map
      (fun (c, (r : Allocator.range)) ->
        let b = Hashtbl.find placed c in
        match
          Transform.fold ~base_page:r.base ~target_pages:r.len b.Binary.paged
        with
        | Error e ->
            fail "fold of %s into [%d+%d] refused: %s" b.Binary.name r.base
              r.len e;
            None
        | Ok sh -> Some (Meld.of_shrunk ~grant:r ~id:c sh))
      (Allocator.clients al)
  in
  let mappings = List.map (fun (r : Meld.resident) -> r.mapping) residents in
  let check_mem = Cgra_util.Rng.bool rng in
  let trace = T.make () in
  let co = Cgra_sim.Coexec.check ~check_mem ~trace mappings in
  let me = Meld.check ~check_mem residents in
  incr sets;
  residents_n := !residents_n + List.length residents;
  (match (co, me) with
  | Ok cr, Ok mr ->
      incr accepts;
      if cr.Cgra_sim.Coexec.residents <> mr.Meld.residents then
        fail "reports disagree on residents: %d vs %d"
          cr.Cgra_sim.Coexec.residents mr.Meld.residents;
      if cr.Cgra_sim.Coexec.hyperperiod <> mr.Meld.hyperperiod then
        fail "reports disagree on hyperperiod: %d vs %d"
          cr.Cgra_sim.Coexec.hyperperiod mr.Meld.hyperperiod;
      if compare cr.Cgra_sim.Coexec.ipc mr.Meld.ipc <> 0 then
        fail "reports disagree on ipc: %.17g vs %.17g" cr.Cgra_sim.Coexec.ipc
          mr.Meld.ipc;
      if compare cr.Cgra_sim.Coexec.utilization mr.Meld.utilization <> 0 then
        fail "reports disagree on utilization: %.17g vs %.17g"
          cr.Cgra_sim.Coexec.utilization mr.Meld.utilization
  | Error _, Error _ -> incr rejects
  | Ok _, Error vs ->
      fail "checker rejects a set the runtime accepts: %s"
        (Format.asprintf "%a" Meld.pp_violation (List.hd vs))
  | Error es, Ok _ ->
      fail "runtime rejects a set the checker accepts: %s" (List.hd es));
  List.iter (fun e -> fail "trace: %s" e) (trace_cross_check (T.events trace) co);
  (* ----- mutants: corrupted sets must be rejected ----- *)
  (match residents with
  | [] -> ()
  | (first : Meld.resident) :: _ ->
      (* a duplicated resident occupies every one of its PEs twice *)
      let next_id =
        1 + List.fold_left (fun acc (r : Meld.resident) -> max acc r.id) 0 residents
      in
      let dup = { first with Meld.id = next_id } in
      let co' =
        Cgra_sim.Coexec.check ~check_mem:false
          (mappings @ [ first.Meld.mapping ])
      in
      let me' = Meld.check ~check_mem:false (residents @ [ dup ]) in
      incr mutants;
      (match co' with
      | Ok _ -> fail "runtime accepts a duplicated resident"
      | Error _ -> ());
      if not (has_rule Meld.Disjoint me') then
        fail "checker misses the duplicated resident (no disjoint violation)";
      (* a resident lying about its grant: shift the claimed range past
         the pages it actually occupies *)
      (match first.Meld.grant with
      | None -> ()
      | Some g ->
          let lied =
            { first with Meld.grant = Some { g with Allocator.base = g.base + 1 } }
          in
          incr mutants;
          if
            not
              (has_rule Meld.Page_range
                 (Meld.check ~check_mem:false
                    (lied :: List.tl residents)))
          then fail "checker misses a shifted grant (no page-range violation)");
      (* a resident compiled for a different fabric *)
      if Cgra_util.Rng.bool rng then begin
        let other = List.find (fun f -> f <> fabric) fabrics in
        let _, foreign_suite = Os_fuzz.suite other in
        let fb = Cgra_util.Rng.choose rng (Array.of_list foreign_suite) in
        let foreign = Meld.resident ~id:(next_id + 1) fb.Binary.paged in
        incr mutants;
        (match
           Cgra_sim.Coexec.check ~check_mem:false
             (mappings @ [ fb.Binary.paged ])
         with
        | Ok _ -> fail "runtime accepts a resident from another fabric"
        | Error _ -> ());
        if
          not
            (has_rule Meld.Residents
               (Meld.check ~check_mem:false (residents @ [ foreign ])))
        then fail "checker misses a foreign-fabric resident"
      end);
  {
    Cgra_util.Corpus.counts =
      [
        ("sets", !sets);
        ("residents", !residents_n);
        ("accepted", !accepts);
        ("rejected", !rejects);
        ("mutants", !mutants);
      ];
    failures = List.rev !failures;
    (* the grants the allocator made, then the runtime's check stream *)
    digest =
      Digest.string
        (String.concat ""
           (List.map
              (fun (c, (r : Allocator.range)) ->
                Printf.sprintf "%d:%d+%d\n" c r.base r.len)
              (Allocator.clients al))
        ^ Cgra_trace.Export.jsonl (T.events trace));
  }

let harness =
  {
    Cgra_util.Corpus.name = "meld";
    counters = [ "sets"; "residents"; "accepted"; "rejected"; "mutants" ];
    case = one_case;
  }
