(* The traced replay of [Mpart.synthesize] (default configuration, no
   cache) through public library calls only, with a span around each
   call.  It performs the same calls in the same order, with the same
   [jobs] batching, as [lib/core/mpart.ml]; the benchmark checks every
   replayed net against [Mpart.synthesize] by expanded-graph digest and
   covers, so if the two ever drift apart the traced run fails instead
   of timing a different program.

   Span names follow the [lib/] layer of the wrapped call:
   stg.parse, analysis.{lint,prescreen,partition}, unfold.prefix,
   petri.reach / symbolic.reach, core.{determine,propagate},
   stategraph.{csc_check,minimize,expand,persistency}, sat.solve,
   logic2.derive, exec.{batch,task}. *)

let span = Span.record

type result = {
  complete : Sg.t;
  expanded : Sg.t;
  functions : Derive.func list;
}

(* [Mpart]'s acceptance criterion: semi-modularity violations after
   expansion. *)
let sm_violations sg0 =
  let e = span "stategraph.expand" (fun () -> Sg_expand.expand sg0) in
  Span.max_ "stategraph.expanded_states_max" (float (Sg.n_states e));
  List.length (span "stategraph.persistency" (fun () -> Persistency.violations e))

let expand sg =
  let e = span "stategraph.expand" (fun () -> Sg_expand.expand sg) in
  Span.max_ "stategraph.expanded_states_max" (float (Sg.n_states e));
  e

let csc f = span "stategraph.csc_check" f

(* Counts the labelings a solver's [accept] hook accepts. *)
let counted_accept accept sg =
  let ok = accept sg in
  if ok then Span.count "sat.accepted";
  ok

let solve_module ~(config : Mpart.config) ~fresh_name complete
    (inp : Input_derivation.t) =
  let module_sg = inp.Input_derivation.module_sg in
  let output_name = Sg.signal_name complete inp.Input_derivation.output in
  let module_output = Sg.find_signal module_sg output_name in
  let baseline = sm_violations module_sg in
  let report =
    span "sat.solve" (fun () ->
        Modular_sat.solve ?backtrack_limit:config.Mpart.backtrack_limit
          ?time_limit:config.Mpart.time_limit ~backend:config.Mpart.backend
          ~normalize:config.Mpart.normalize_modules
          ~accept:(counted_accept (fun solved -> sm_violations solved <= baseline))
          ~output:module_output module_sg)
  in
  match report.Modular_sat.outcome with
  | Modular_sat.Gave_up reason ->
    raise
      (Mpart.Synthesis_failed
         (Printf.sprintf "module %s: SAT %s" output_name
            (match reason with
            | Dpll.Backtrack_limit -> "backtrack limit exceeded"
            | Dpll.Time_limit -> "time limit exceeded")))
  | Modular_sat.Solved { new_extras; _ } ->
    let complete = ref complete in
    let names = ref [] in
    Array.iter
      (fun (x : Sg.extra) ->
        let name = fresh_name () in
        names := name :: !names;
        complete :=
          span "core.propagate" (fun () ->
              Propagation.propagate !complete ~cover:inp.Input_derivation.cover
                ~name ~values:x.Sg.values))
      new_extras;
    (!complete, List.rev !names, new_extras)

let cone_of (inp : Input_derivation.t) conflicts =
  {
    Partition_check.c_output = inp.Input_derivation.output;
    c_inputs = inp.Input_derivation.input_set;
    c_immediate = inp.Input_derivation.immediate;
    c_kept_extras = inp.Input_derivation.kept_extras;
    c_module = inp.Input_derivation.module_sg;
    c_cover = inp.Input_derivation.cover;
    c_conflicts = conflicts;
  }

let add_extras sg ~fresh_name new_extras =
  let acc = ref sg in
  Array.iter
    (fun (x : Sg.extra) ->
      acc := Sg.add_extra !acc ~name:(fresh_name ()) ~values:x.Sg.values)
    new_extras;
  !acc

let solve_pairs ~(config : Mpart.config) ~accept ~resolve sg =
  span "sat.solve" (fun () ->
      Modular_sat.solve_pairs ?backtrack_limit:config.Mpart.backtrack_limit
        ?time_limit:config.Mpart.time_limit ~backend:config.Mpart.backend
        ~accept:(counted_accept accept) ~resolve sg)

(* The port of [Mpart]'s flow from the complete state graph on. *)
let synthesize_sg ~(config : Mpart.config) ~csc_certified complete =
  let counter = ref 0 in
  let fresh_name () =
    let n = Printf.sprintf "n%d" !counter in
    incr counter;
    n
  in
  let outputs =
    List.filter (Sg.non_input complete) (List.init (Sg.n_signals complete) Fun.id)
  in
  Span.add "core.outputs" (float (List.length outputs));
  let current = ref complete in
  let supports : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let analyze g o =
    let inp =
      span "core.determine" (fun () -> Input_derivation.determine g ~output:o)
    in
    let conflicts =
      if csc_certified then 0
      else
        csc (fun () ->
            Csc.n_output_conflicts inp.Input_derivation.module_sg
              ~output:
                (Sg.find_signal inp.Input_derivation.module_sg
                   (Sg.signal_name g o)))
    in
    (o, inp, conflicts)
  in
  let jobs = config.Mpart.jobs in
  let plan_analyses = Span.batch ~jobs (analyze complete) outputs in
  let plan =
    span "analysis.partition" (fun () ->
        Partition_check.summarize ~complete
          (List.map (fun (_, inp, conflicts) -> cone_of inp conflicts) plan_analyses))
  in
  Span.add "analysis.dup_cones"
    (float
       (List.fold_left
          (fun acc g -> acc + List.length g.Partition_check.dg_outputs - 1)
          0 plan.Partition_check.p_duplicates));
  let plan_analyses =
    if not config.Mpart.order_by_risk then plan_analyses
    else begin
      let rank = Hashtbl.create 8 in
      List.iteri (fun i n -> Hashtbl.replace rank n i) plan.Partition_check.p_order;
      let rank_of (o, _, _) =
        Option.value (Hashtbl.find_opt rank (Sg.signal_name complete o)) ~default:max_int
      in
      List.stable_sort (fun a b -> compare (rank_of a) (rank_of b)) plan_analyses
    end
  in
  let solutions : (string, Fourval.t array list) Hashtbl.t = Hashtbl.create 8 in
  let consume (o, (inp : Input_derivation.t), conflicts) =
    Span.add "core.module_states" (float (Sg.n_states inp.Input_derivation.module_sg));
    let solve_fresh ?digest_perm () =
      let c, names, extras = solve_module ~config ~fresh_name !current inp in
      (match digest_perm with
      | Some (digest, perm) when config.Mpart.dedup_cones ->
        let inv = Array.make (Array.length perm) 0 in
        Array.iteri (fun t ci -> inv.(ci) <- t) perm;
        let canon =
          Array.to_list
            (Array.map
               (fun (x : Sg.extra) ->
                 Array.init (Array.length perm) (fun ci -> x.Sg.values.(inv.(ci))))
               extras)
        in
        Hashtbl.replace solutions digest canon
      | _ -> ());
      (c, names)
    in
    let updated, new_signals =
      if conflicts = 0 then (!current, [])
      else begin
        let module_sg = inp.Input_derivation.module_sg in
        let local_out = Sg.find_signal module_sg (Sg.signal_name complete o) in
        let digest, perm =
          span "analysis.partition" (fun () ->
              Partition_check.canonical_form ~output:local_out module_sg)
        in
        match
          if config.Mpart.dedup_cones then Hashtbl.find_opt solutions digest
          else None
        with
        | None -> solve_fresh ~digest_perm:(digest, perm) ()
        | Some canon -> (
          match
            let acc = ref !current in
            let names = ref [] in
            List.iter
              (fun (vc : Fourval.t array) ->
                let name = fresh_name () in
                names := name :: !names;
                let values =
                  Array.init (Sg.n_states module_sg) (fun t -> vc.(perm.(t)))
                in
                acc :=
                  span "core.propagate" (fun () ->
                      Propagation.propagate !acc ~cover:inp.Input_derivation.cover
                        ~name ~values))
              canon;
            (!acc, List.rev !names)
          with
          | updated, names ->
            Span.count "core.replayed_cones";
            (updated, names)
          | exception Sg.Inconsistent _ -> solve_fresh ())
      end
    in
    let changed = updated != !current in
    current := updated;
    Hashtbl.replace supports
      (Sg.signal_name complete o)
      (List.map (Sg.signal_name complete) inp.Input_derivation.input_set
      @ inp.Input_derivation.kept_extras @ new_signals);
    changed
  in
  let rec split_batch k = function
    | rest when k = 0 -> ([], rest)
    | [] -> ([], [])
    | o :: rest ->
      let batch, deferred = split_batch (k - 1) rest in
      (o :: batch, deferred)
  in
  let rec run_batches pending =
    match pending with
    | [] -> ()
    | _ ->
      let batch, deferred = split_batch (max 1 jobs) pending in
      let analyzed = Span.batch ~jobs (analyze !current) batch in
      let rec go = function
        | [] -> []
        | a :: rest -> if consume a then List.map (fun (o, _, _) -> o) rest else go rest
      in
      let stale = go analyzed in
      run_batches (stale @ deferred)
  in
  let rec consume_plan = function
    | [] -> []
    | a :: rest ->
      if consume a then List.map (fun (o, _, _) -> o) rest else consume_plan rest
  in
  run_batches (consume_plan plan_analyses);
  if not (csc (fun () -> Csc.csc_satisfied !current)) then begin
    let remaining = csc (fun () -> Csc.conflict_pairs !current) in
    let baseline = sm_violations !current in
    let r =
      solve_pairs ~config
        ~accept:(fun solved -> sm_violations solved <= baseline)
        ~resolve:remaining !current
    in
    match r.Modular_sat.outcome with
    | Modular_sat.Gave_up _ ->
      raise (Mpart.Synthesis_failed "global cleanup pass exhausted its SAT budget")
    | Modular_sat.Solved { new_extras; _ } ->
      current := add_extras !current ~fresh_name new_extras
  end;
  let implementable sg0 =
    Span.count "stategraph.implementable_checks";
    let e = expand sg0 in
    csc (fun () -> Csc.csc_satisfied e)
    && span "stategraph.persistency" (fun () -> Persistency.is_semi_modular e)
  in
  let minimize_safely sg0 =
    span "stategraph.minimize" (fun () ->
        let acc = ref sg0 in
        for index = 0 to Sg.n_extras sg0 - 1 do
          let candidate = Region_minimize.minimize_extra !acc ~index in
          Span.count "stategraph.minimize_candidates";
          if implementable candidate then begin
            Span.count "stategraph.minimize_kept";
            acc := candidate
          end
        done;
        !acc)
  in
  let final = if implementable !current then minimize_safely !current else !current in
  let rec repair expanded round =
    if csc (fun () -> Csc.csc_satisfied expanded) then expanded
    else if round > 4 then
      raise (Mpart.Synthesis_failed "expansion repair did not converge")
    else begin
      let baseline = sm_violations expanded in
      let r =
        solve_pairs ~config
          ~accept:(fun solved -> sm_violations solved <= baseline)
          ~resolve:(csc (fun () -> Csc.conflict_pairs expanded))
          expanded
      in
      match r.Modular_sat.outcome with
      | Modular_sat.Gave_up _ ->
        raise (Mpart.Synthesis_failed "expansion repair exhausted its SAT budget")
      | Modular_sat.Solved { new_extras; _ } ->
        let solved = add_extras expanded ~fresh_name new_extras in
        let solved' =
          let m =
            span "stategraph.minimize" (fun () -> Region_minimize.minimize solved)
          in
          if csc (fun () -> Csc.csc_satisfied (expand m)) then m else solved
        in
        repair (expand solved') (round + 1)
    end
  in
  let expanded = repair (expand final) 0 in
  let expanded =
    if span "stategraph.persistency" (fun () -> Persistency.is_semi_modular expanded)
    then expanded
    else begin
      let r =
        solve_pairs ~config ~accept:implementable
          ~resolve:(csc (fun () -> Csc.conflict_pairs complete))
          complete
      in
      match r.Modular_sat.outcome with
      | Modular_sat.Gave_up _ ->
        raise
          (Mpart.Synthesis_failed
             "no semi-modular state-signal insertion within the SAT budget")
      | Modular_sat.Solved { new_extras; _ } ->
        Hashtbl.reset supports;
        expand (minimize_safely (add_extras complete ~fresh_name new_extras))
    end
  in
  let support_of s =
    match Hashtbl.find_opt supports (Sg.signal_name expanded s) with
    | None -> None
    | Some names ->
      Some
        (List.sort_uniq Int.compare
           (List.filter_map
              (fun n ->
                match Sg.find_signal expanded n with
                | id -> Some id
                | exception Not_found -> None)
              names))
  in
  let minimizer = if config.Mpart.exact_covers then `Exact else `Heuristic in
  let functions =
    span "logic2.derive" (fun () -> Derive.synthesize ~minimizer ~support_of expanded)
  in
  Span.add "logic2.covers" (float (List.length functions));
  let functions =
    if config.Mpart.hazard_free then
      List.map (Hazard.hazard_free_enlargement expanded) functions
    else functions
  in
  { complete; expanded; functions }

(* [Mpart.synthesize]'s front: the CSC certificate (A6 lock relation,
   then the U3 prefix rule), the U4-driven choice of reachability
   engine, and the complete state graph.  Without a cache [Mpart]
   builds the prefix once for the certificate (when A6 abstains) and
   once more for the engine choice; so does the replay. *)
let synthesize ~(config : Mpart.config) stg =
  let prefix () =
    let p =
      span "unfold.prefix" (fun () ->
          Prefix_rules.analyze ~jobs:config.Mpart.jobs
            ~max_events:config.Mpart.prefix_max_events stg)
    in
    Span.add "unfold.prefix_events" (float p.Prefix_rules.s_events);
    p
  in
  let csc_certified =
    config.Mpart.prescreen
    && (span "analysis.prescreen" (fun () -> Lint.prescreen stg) <> None
       || config.Mpart.prefix_prescreen
          && (prefix ()).Prefix_rules.s_csc = Some true)
  in
  let reach =
    match config.Mpart.reach with
    | (`Explicit | `Symbolic) as r -> r
    | `Auto ->
      if not config.Mpart.prefix_prescreen then `Explicit
      else begin
        let p = prefix () in
        let bound =
          match p.Prefix_rules.s_sg_states with
          | Some _ as b -> b
          | None -> p.Prefix_rules.s_markings
        in
        match bound with
        | Some n when n >= config.Mpart.symbolic_threshold -> `Symbolic
        | _ -> `Explicit
      end
  in
  let complete =
    span
      (match reach with `Symbolic -> "symbolic.reach" | `Explicit -> "petri.reach")
      (fun () -> Sg.of_stg ~max_states:config.Mpart.max_states ~backend:reach stg)
  in
  Span.add "stategraph.complete_states" (float (Sg.n_states complete));
  synthesize_sg ~config ~csc_certified complete

(* The whole traced operation for one net, inside a "net" span. *)
let run ~jobs (net : Workload.net) =
  span "net" (fun () ->
      let stg = Op.parse_and_lint { Op.span } net in
      synthesize ~config:(Op.config ~jobs) stg)
