let src = Logs.Src.create "mpsyn.mpart" ~doc:"modular partitioning synthesis"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  backtrack_limit : int option;
  time_limit : float option;
  max_states : int;
  hazard_free : bool;
  backend : [ `Sat | `Dpll | `Bdd ];
  normalize_modules : bool;
  exact_covers : bool;
  prescreen : bool;
  prefix_prescreen : bool;
  prefix_max_events : int;
  reach : [ `Auto | `Explicit | `Symbolic ];
  symbolic_threshold : int;
  dedup_cones : bool;
  order_by_risk : bool;
  jobs : int;
  cache : Cache_store.t option;
}

let default_config =
  {
    backtrack_limit = None;
    time_limit = None;
    max_states = 200_000;
    hazard_free = false;
    backend = `Sat;
    normalize_modules = true;
    exact_covers = false;
    prescreen = true;
    prefix_prescreen = true;
    prefix_max_events = 2048;
    reach = `Auto;
    symbolic_threshold = 2048;
    dedup_cones = true;
    order_by_risk = true;
    jobs = Pool.default_jobs ();
    cache = None;
  }

(* ------------------------------------------------------------------ *)
(* Content-addressed memoization of the solver-independent stages      *)
(* ------------------------------------------------------------------ *)

(* Everything a cached result depends on besides the content digest.
   [jobs] is deliberately absent: results are bit-identical for any
   pool width, so entries are shared across --jobs settings.  The
   fields synthesis ignores ([prescreen], [prefix_prescreen], [reach],
   [symbolic_threshold]) and the prefix's event cap are absent too. *)
let fingerprint config =
  [
    ( "backend",
      match config.backend with `Sat -> "sat" | `Dpll -> "dpll" | `Bdd -> "bdd"
    );
    ("normalize", string_of_bool config.normalize_modules);
    ("exact_covers", string_of_bool config.exact_covers);
    ("hazard_free", string_of_bool config.hazard_free);
    ("dedup_cones", string_of_bool config.dedup_cones);
    ("order_by_risk", string_of_bool config.order_by_risk);
    ("max_states", string_of_int config.max_states);
    ( "backtrack_limit",
      match config.backtrack_limit with
      | None -> "none"
      | Some n -> string_of_int n );
    ( "time_limit",
      match config.time_limit with
      | None -> "none"
      | Some t -> Printf.sprintf "%.6f" t );
  ]

(* Cover minimization memo ({!Derive.cover_memo}): the minimized cover
   depends on exactly (minimizer, width, onset, offset). *)
let memo_cover_of config : Derive.cover_memo =
 fun ~minimizer ~width ~onset ~offset compute ->
  Cache_store.memoize config.cache ~stage:"cover"
    ~params:
      [
        ("minimizer", match minimizer with `Heuristic -> "h" | `Exact -> "e");
        ("width", string_of_int width);
      ]
    (lazy
      (let buf = Buffer.create 256 in
       List.iter (fun m -> Buffer.add_string buf (string_of_int m ^ ",")) onset;
       Buffer.add_char buf '/';
       List.iter (fun m -> Buffer.add_string buf (string_of_int m ^ ",")) offset;
       Cache_key.string_digest (Buffer.contents buf)))
    compute

type formula_size = Csc_direct.formula_size = { vars : int; clauses : int }

type module_report = {
  output_name : string;
  input_set : string list;
  immediate : string list;
  kept_extras : string list;
  module_states : int;
  module_edges : int;
  module_conflicts : int;
  new_signals : string list;
  formulas : formula_size list;
  sat_elapsed : float;
}

type result = {
  complete : Sg.t;
  final : Sg.t;
  expanded : Sg.t;
  functions : Derive.func list;
  modules : module_report list;
  fallback : module_report option;
  csc_certified : bool;
  plan : Partition_check.summary;
  replayed : string list;
  stale_analyses : int;
  elapsed : float;
}

exception Synthesis_failed of string

(* Expansion turns every extra into a visible signal, and codes are one
   machine word: a wider labeling cannot be realised. *)
let check_width sg =
  if Sg.n_extras sg > 0 && Sg.full_width sg > 62 then
    raise (Synthesis_failed "more than 62 visible signals")

(* Count of semi-modularity violations after expansion — the quantity a
   candidate labeling must not increase.  Comparing against the graph's
   own baseline (rather than demanding zero) keeps module-level checks
   meaningful: a quotient can carry artifact violations the module is
   not responsible for.  Counted on the product, never built. *)
let sm_violations sg0 =
  check_width sg0;
  Sg_expand.violation_count sg0

let expand sg0 =
  check_width sg0;
  Sg_expand.expand sg0

(* What a per-module CSC solution costs to recompute and what it is
   safe to replay: the accepted state-signal labelings plus the SAT
   metrics.  The cache key is the module graph's content digest — the
   partitioned representation is exactly what keeps this key local:
   editing one output's cone leaves every other module's digest (and
   cached solution) intact, which is the incremental-re-synthesis
   story. *)
type module_solution = {
  sol_extras : Sg.extra array;
  sol_formulas : formula_size list;
  sol_elapsed : float;
}

(* Attach each labeling in [values] to [sg] through [attach], in order,
   under a [fresh_name]; returns the graph and the new names.  The
   naming order is what makes netlists reproducible. *)
let attach_fresh ~fresh_name attach sg values =
  let sg, names =
    List.fold_left
      (fun (sg, names) values ->
        let name = fresh_name () in
        (attach sg ~name ~values, name :: names))
      (sg, []) values
  in
  (sg, List.rev names)

let values_of extras =
  Array.to_list (Array.map (fun (x : Sg.extra) -> x.Sg.values) extras)

(* A bounded direct pass over the whole of [sg]: resolve [pairs] and
   attach the new state signals; [failure] is the message when the SAT
   budget runs out.  Returns the labeled graph, the new names and the
   solver report. *)
let solve_globally ~config ~fresh_name ~accept ~failure sg pairs =
  let r =
    Modular_sat.solve_pairs ?backtrack_limit:config.backtrack_limit
      ?time_limit:config.time_limit ~backend:config.backend ~accept
      ~resolve:pairs sg
  in
  match r.Modular_sat.outcome with
  | Modular_sat.Gave_up _ -> raise (Synthesis_failed failure)
  | Modular_sat.Solved { new_extras; _ } ->
    let sg, names =
      attach_fresh ~fresh_name Sg.add_extra sg (values_of new_extras)
    in
    (sg, names, r)

(* Solve one modular graph and propagate the new signals back.  Returns
   the updated complete graph, the new signal names, and SAT metrics. *)
let solve_module ~config ~fresh_name complete (inp : Input_derivation.t) =
  let module_sg = inp.Input_derivation.module_sg in
  let output_name = Sg.signal_name complete inp.Input_derivation.output in
  let module_output = Sg.find_signal module_sg output_name in
  let baseline = sm_violations module_sg in
  (* A gave-up verdict depends on the budget and must be retried, never
     replayed: it raises, so it never reaches the store. *)
  let sol =
    Cache_store.memoize config.cache ~stage:"module-csc"
      ~params:(("output", output_name) :: fingerprint config)
      (lazy (Sg.digest module_sg))
      (fun () ->
        let report =
          Modular_sat.solve ?backtrack_limit:config.backtrack_limit
            ?time_limit:config.time_limit ~backend:config.backend
            ~normalize:config.normalize_modules
            ~accept:(fun solved -> sm_violations solved <= baseline)
            ~output:module_output module_sg
        in
        match report.Modular_sat.outcome with
        | Modular_sat.Gave_up reason ->
          raise
            (Synthesis_failed
               (Printf.sprintf "module %s: SAT %s" output_name
                  (match reason with
                  | Dpll.Backtrack_limit -> "backtrack limit exceeded"
                  | Dpll.Time_limit -> "time limit exceeded")))
        | Modular_sat.Solved { new_extras; _ } ->
          {
            sol_extras = new_extras;
            sol_formulas = report.Modular_sat.formulas;
            sol_elapsed = report.Modular_sat.elapsed;
          })
  in
  let complete, names =
    attach_fresh ~fresh_name
      (Propagation.propagate ~cover:inp.Input_derivation.cover)
      complete (values_of sol.sol_extras)
  in
  (complete, names, sol)

let module_report complete (inp : Input_derivation.t)
    (sat : module_solution option) ~conflicts ~new_signals =
  {
    output_name = Sg.signal_name complete inp.Input_derivation.output;
    input_set = List.map (Sg.signal_name complete) inp.Input_derivation.input_set;
    immediate = List.map (Sg.signal_name complete) inp.Input_derivation.immediate;
    kept_extras = inp.Input_derivation.kept_extras;
    module_states = Sg.n_states inp.Input_derivation.module_sg;
    module_edges = Sg.n_edges inp.Input_derivation.module_sg;
    module_conflicts = conflicts;
    new_signals;
    formulas = (match sat with None -> [] | Some s -> s.sol_formulas);
    sat_elapsed = (match sat with None -> 0.0 | Some s -> s.sol_elapsed);
  }

(* The report of a whole-graph pass ([solve_globally]) on [sg]. *)
let global_report output_name sg ~conflicts ~new_signals
    (r : Modular_sat.report) =
  {
    output_name;
    input_set = [];
    immediate = [];
    kept_extras = [];
    module_states = Sg.n_states sg;
    module_edges = Sg.n_edges sg;
    module_conflicts = conflicts;
    new_signals;
    formulas = r.Modular_sat.formulas;
    sat_elapsed = r.Modular_sat.elapsed;
  }

(* A derived module, described for the partition auditor against the
   complete graph it was cut from. *)
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

let outputs_of complete =
  List.filter (Sg.non_input complete) (List.init (Sg.n_signals complete) Fun.id)

(* Derive output [o]'s module from [g] (ε-projection onto its input set)
   and count the module's CSC conflicts.  When the complete graph is
   conflict-free the module quotients need no state signals:
   [csc_certified] skips conflict counting and the SAT engine outright.
   Artifact conflicts a quotient would show are exactly the pairs the
   complete graph proves spurious. *)
let analyze ~csc_certified g o =
  Log.debug (fun m -> m "deriving module for output %s" (Sg.signal_name g o));
  let inp = Input_derivation.determine g ~output:o in
  let conflicts =
    if csc_certified then 0
    else
      Csc.n_output_conflicts inp.Input_derivation.module_sg
        ~output:
          (Sg.find_signal inp.Input_derivation.module_sg (Sg.signal_name g o))
  in
  (o, inp, conflicts)

let synthesize_sg_uncached ~config ~csc_certified complete =
  let t0 = Sys.time () in
  let counter = ref 0 in
  let fresh_name () =
    let n = Printf.sprintf "n%d" !counter in
    incr counter;
    n
  in
  let outputs = outputs_of complete in
  let current = ref complete in
  let reports = ref [] in
  (* Per-output support for logic derivation, in complete-graph signal
     names (resolved to expanded ids later). *)
  let supports : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  (* The derivation stage — ε-projection of the complete graph onto each
     output's input set plus modular CSC conflict detection — only reads
     the graph, so all outputs are analyzed concurrently up front
     ({!Pool}).  The solve/propagate stage mutates the shared complete
     graph and keeps the sequential order; once it lands new state
     signals in the graph, the precomputed analyses of the outputs not
     yet consumed are stale (a new signal can separate their conflicts
     or join their module), so each of them is recomputed against the
     updated graph just before it is consumed.  Every consumed analysis
     was therefore computed against exactly the graph the sequential
     loop uses, so results are bit-identical for any [jobs]. *)
  let analyze = analyze ~csc_certified in
  (* The partition plan: every output analyzed once against the initial
     complete graph (these analyses double as the first solve pass),
     audited by the static M rules, and consumed below for duplicate-cone
     dedup and risk-ordered solving. *)
  let plan_analyses = Pool.map_list ~jobs:config.jobs (analyze complete) outputs in
  let plan =
    Partition_check.summarize ~complete
      (List.map (fun (_, inp, conflicts) -> cone_of inp conflicts) plan_analyses)
  in
  (* M4: solve low-risk modules first — their insertions are the least
     likely to land in states shared with other conflicted cones, so the
     expensive re-analyses concentrate where they were inevitable. *)
  let plan_analyses =
    if not config.order_by_risk then plan_analyses
    else begin
      let rank = Hashtbl.create 8 in
      List.iteri
        (fun i n -> Hashtbl.replace rank n i)
        plan.Partition_check.p_order;
      let rank_of (o, _, _) =
        Option.value
          (Hashtbl.find_opt rank (Sg.signal_name complete o))
          ~default:max_int
      in
      List.stable_sort (fun a b -> compare (rank_of a) (rank_of b)) plan_analyses
    end
  in
  (* M3 consumption: canonicalized CSC solutions keyed by the cone
     digest of the module they solved.  A later module with the same
     digest is the same graph up to state renaming, so the stored
     solution replays through the two renumberings — no second SAT
     call. *)
  let solutions : (string, Fourval.t array list) Hashtbl.t =
    Hashtbl.create 8
  in
  let replayed = ref [] in
  let stale_analyses = ref 0 in
  (* Solve one analyzed module; returns [true] when the complete graph
     gained state signals (invalidating later analyses). *)
  let consume (o, inp, conflicts) =
    Log.debug (fun m ->
        m "module %s: %d states, solving"
          (Sg.signal_name complete o)
          (Sg.n_states inp.Input_derivation.module_sg));
    let solve_fresh ?digest_perm () =
      let c, names, r = solve_module ~config ~fresh_name !current inp in
      (match digest_perm with
      | Some (digest, perm) when config.dedup_cones ->
        let inv = Array.make (Array.length perm) 0 in
        Array.iteri (fun t ci -> inv.(ci) <- t) perm;
        let canon =
          Array.to_list
            (Array.map
               (fun (x : Sg.extra) ->
                 Array.init (Array.length perm) (fun ci ->
                     x.Sg.values.(inv.(ci))))
               r.sol_extras)
        in
        Hashtbl.replace solutions digest canon
      | _ -> ());
      (c, names, Some r)
    in
    let updated, new_signals, sat =
      if conflicts = 0 then (!current, [], None)
      else begin
        let module_sg = inp.Input_derivation.module_sg in
        let local_out =
          Sg.find_signal module_sg (Sg.signal_name complete o)
        in
        let digest, perm =
          Partition_check.canonical_form ~output:local_out module_sg
        in
        match
          if config.dedup_cones then Hashtbl.find_opt solutions digest
          else None
        with
        | None -> solve_fresh ~digest_perm:(digest, perm) ()
        | Some canon -> (
          match
            attach_fresh ~fresh_name
              (Propagation.propagate ~cover:inp.Input_derivation.cover)
              !current
              (List.map
                 (fun (vc : Fourval.t array) ->
                   Array.init (Sg.n_states module_sg) (fun t -> vc.(perm.(t))))
                 canon)
          with
          | updated, names ->
            Log.debug (fun m ->
                m "module %s: duplicate cone, replaying %d state signal(s)"
                  (Sg.signal_name complete o)
                  (List.length names));
            replayed := Sg.signal_name complete o :: !replayed;
            (updated, names, None)
          | exception Sg.Inconsistent _ ->
            (* Cannot happen for a true twin (the isomorphism transports
               edge consistency), but a failed replay must degrade to a
               normal solve, never to a wrong graph. *)
            solve_fresh ())
      end
    in
    let changed = updated != !current in
    current := updated;
    Hashtbl.replace supports
      (Sg.signal_name complete o)
      (List.map (Sg.signal_name complete) inp.Input_derivation.input_set
      @ inp.Input_derivation.kept_extras @ new_signals);
    reports := module_report !current inp sat ~conflicts ~new_signals :: !reports;
    changed
  in
  (* Consume the plan analyses (all computed against [complete], which
     is exactly [!current] until the first mutation); once a solve lands
     state signals, every remaining output is re-analyzed against the
     updated graph just before it is consumed. *)
  let rec consume_plan = function
    | [] -> []
    | a :: rest ->
      if consume a then List.map (fun (o, _, _) -> o) rest
      else consume_plan rest
  in
  List.iter
    (fun o ->
      incr stale_analyses;
      ignore (consume (analyze !current o)))
    (consume_plan plan_analyses);
  (* Fallback: conflicts invisible to every module. *)
  let fallback = ref None in
  Log.debug (fun m ->
      m "modules done: %d conflicts remain" (Csc.n_conflicts !current));
  if not (Csc.csc_satisfied !current) then begin
    let remaining = Csc.conflict_pairs !current in
    let baseline = sm_violations !current in
    let solved, names, r =
      solve_globally ~config ~fresh_name
        ~accept:(fun solved -> sm_violations solved <= baseline)
        ~failure:"global cleanup pass exhausted its SAT budget" !current
        remaining
    in
    current := solved;
    fallback :=
      Some
        (global_report "<global>" solved
           ~conflicts:(List.length remaining) ~new_signals:names r)
  end;
  (* All conflicts are resolved; serialize the inserted transitions so
     that expansion splits as few states as possible.  A labeling that
     resolves every conflict can still fail once expanded: a
     same-base-code pair valued (Up, Dn) is distinguished before
     expansion and collides after it (the strict-0/1 rule of the
     encoding exists because excited values do not survive expansion),
     and an excited region completed across the closing edges of a
     concurrency diamond makes each of the diamond's events wait for
     the inserted transition, so firing one withdraws the other: a
     semi-modularity violation the conformance oracle observes as a
     gate-level hazard.  So a minimization step is kept only when the
     whole labeling's expansion still satisfies CSC and stays
     semi-modular.  [Sg_expand.implementable] decides that on the
     unexpanded graph — the expansion is a product of the base graph
     with one two-state component per extra — so each check costs the
     base graph, not an expansion up to 2^extras times its size.
     Remaining expansion-born conflicts are repaired with bounded
     direct passes. *)
  Log.debug (fun m -> m "minimizing excitation regions");
  let implementable sg0 =
    check_width sg0;
    Sg_expand.implementable sg0
  in
  let minimize_safely sg0 =
    (* one extra at a time, keeping a minimization only when the whole
       labeling stays implementable *)
    let acc = ref sg0 in
    for index = 0 to Sg.n_extras sg0 - 1 do
      let candidate = Region_minimize.minimize_extra !acc ~index in
      if implementable candidate then acc := candidate
    done;
    !acc
  in
  let final =
    if implementable !current then minimize_safely !current else !current
  in
  let rec repair expanded round =
    Log.debug (fun m ->
        m "expansion round %d: %d states, %d conflicts" round
          (Sg.n_states expanded) (Csc.n_conflicts expanded));
    if Csc.csc_satisfied expanded then expanded
    else if round > 4 then
      raise (Synthesis_failed "expansion repair did not converge")
    else begin
      let baseline = sm_violations expanded in
      let solved, _, _ =
        solve_globally ~config ~fresh_name
          ~accept:(fun solved -> sm_violations solved <= baseline)
          ~failure:"expansion repair exhausted its SAT budget" expanded
          (Csc.conflict_pairs expanded)
      in
      check_width solved;
      let solved' =
        let m = Region_minimize.minimize solved in
        if Sg_expand.csc_satisfied m then m else solved
      in
      repair (expand solved') (round + 1)
    end
  in
  let expanded = repair (expand final) 0 in
  (* Safety net: if the composition of per-module insertions is still
     hazardous globally (modules validate against their quotient views,
     which can hide a diamond two signals share), redo the whole
     insertion on the source graph with every candidate labeling
     validated against global expansion semi-modularity.  Module
     supports are dropped — the redone signals owe nothing to the
     per-module input sets. *)
  let expanded =
    if Persistency.is_semi_modular expanded then expanded
    else begin
      Log.debug (fun m ->
          m "modular composition lost semi-modularity; global re-insertion");
      let pairs = Csc.conflict_pairs complete in
      let solved, names, r =
        solve_globally ~config ~fresh_name ~accept:implementable
          ~failure:
            "no semi-modular state-signal insertion within the SAT budget"
          complete pairs
      in
      Hashtbl.reset supports;
      fallback :=
        Some
          (global_report "<global redo>" solved
             ~conflicts:(List.length pairs) ~new_signals:names r);
      expand (minimize_safely solved)
    end
  in
  (* Logic derivation: outputs over their module supports; inserted state
     signals over a greedily reduced support. *)
  let support_of s =
    let name = Sg.signal_name expanded s in
    match Hashtbl.find_opt supports name with
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
  let minimizer = if config.exact_covers then `Exact else `Heuristic in
  let functions =
    Derive.synthesize ~minimizer ~memo_cover:(memo_cover_of config) ~support_of
      expanded
  in
  let functions =
    if config.hazard_free then
      List.map (Hazard.hazard_free_enlargement expanded) functions
    else functions
  in
  {
    complete;
    final;
    expanded;
    functions;
    modules = List.rev !reports;
    fallback = !fallback;
    csc_certified;
    plan;
    replayed = List.rev !replayed;
    stale_analyses = !stale_analyses;
    elapsed = Sys.time () -. t0;
  }

(* A whole synthesis run keyed by the complete state graph's content:
   the entry carries every downstream stage at once — per-output
   modular projections, CSC solutions, propagated expansions, and
   minimized covers. *)
let synthesize_sg ?(config = default_config) ?(csc_certified = false) complete =
  Cache_store.memoize config.cache ~stage:"synth-sg"
    ~params:(("certified", string_of_bool csc_certified) :: fingerprint config)
    (lazy (Sg.digest complete))
    (fun () -> synthesize_sg_uncached ~config ~csc_certified complete)

(* The complete finite prefix of the STG's unfolding with the exact
   U1-U4 verdicts, for [mpsyn lint --prefix].  The summary is plain data
   (no timings, no machine state) and deterministic for any pool width,
   so it is cached by the specification digest and the event cap. *)
let prefix_summary ?(jobs = 1) config stg =
  Cache_store.memoize config.cache ~stage:"prefix"
    ~params:[ ("max_events", string_of_int config.prefix_max_events) ]
    (lazy (Cache_key.stg_digest stg))
    (fun () ->
      Prefix_rules.analyze ~jobs ~max_events:config.prefix_max_events stg)

(* Reachability exploration + consistent state assignment, keyed by the
   canonical [.g] digest of the specification. *)
let complete_of_stg config stg =
  Cache_store.memoize config.cache ~stage:"sg"
    ~params:[ ("max_states", string_of_int config.max_states) ]
    (lazy (Cache_key.stg_digest stg))
    (fun () -> Sg.of_stg ~max_states:config.max_states stg)

(* The partition plan as a standalone artifact (`mpsyn lint
   --partition`): every output's cone derived against the complete
   graph, with real conflict counts (no certificate zeroing — the plan
   describes the partition, not one synthesis run's shortcuts).  The
   summary is plain data, deterministic for any pool width, and depends
   only on the specification and the state cap, so it is memoized by
   the STG digest alone. *)
let partition_summary ?jobs config stg =
  let jobs = match jobs with Some j -> j | None -> config.jobs in
  Cache_store.memoize config.cache ~stage:"plan"
    ~params:[ ("max_states", string_of_int config.max_states) ]
    (lazy (Cache_key.stg_digest stg))
    (fun () ->
      let complete = complete_of_stg config stg in
      Pool.map_list ~jobs
        (fun o ->
          let _, inp, conflicts = analyze ~csc_certified:false complete o in
          cone_of inp conflicts)
        (outputs_of complete)
      |> Partition_check.summarize ~complete)

let synthesize ?(config = default_config) stg =
  (* The top-level entry elides even the reachability exploration on a
     warm run. *)
  Cache_store.memoize config.cache ~stage:"synth" ~params:(fingerprint config)
    (lazy (Cache_key.stg_digest stg))
    (fun () ->
      let complete = complete_of_stg config stg in
      synthesize_sg ~config
        ~csc_certified:(Csc.csc_satisfied complete)
        complete)

let initial_states r = Sg.n_states r.complete
let initial_signals r = Sg.n_signals r.complete
let final_states r = Sg.n_states r.expanded
let final_signals r = Sg.n_signals r.expanded
let area_literals r = Derive.total_literals r.functions
let n_state_signals r = final_signals r - initial_signals r

let verify r =
  if not (Csc.csc_satisfied r.expanded) then
    Some "expanded state graph violates CSC"
  else
    match Derive.check r.functions r.expanded with
    | [] -> None
    | (name, m) :: _ ->
      Some (Printf.sprintf "function %s disagrees with state %d" name m)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>modular synthesis: %d -> %d states, %d -> %d signals, %d literals, %.3fs@,"
    (initial_states r) (final_states r) (initial_signals r) (final_signals r)
    (area_literals r) r.elapsed;
  if r.csc_certified then
    Format.fprintf ppf
      "  CSC holds on the complete graph; SAT skipped@,";
  List.iter
    (fun m ->
      Format.fprintf ppf "  %s: |Is|=%d, %d module states, %d conflicts%s@,"
        m.output_name
        (List.length m.input_set)
        m.module_states m.module_conflicts
        (match m.new_signals with
        | [] -> ""
        | ns -> Printf.sprintf ", new {%s}" (String.concat "," ns)))
    r.modules;
  (match r.fallback with
  | None -> ()
  | Some f ->
    Format.fprintf ppf "  global fallback: new {%s}@,"
      (String.concat "," f.new_signals));
  Format.fprintf ppf "@]"
