(* mpbench — the end-to-end benchmark of mpsyn.

     sh mpbench/run.sh --workload table1|expand|rings --seed N
                       --seconds S --trace 0|1

   One run sets the workload up (builds its inputs and synthesizes one
   warm-up net, untimed), then makes passes over the workload's nets, in
   an order shuffled by the seed, until [--seconds] have gone by; every
   started pass is finished.  The timed operation is what [mpsyn synth]
   does for one net: parse, lint gate, [Mpart.synthesize].  Checking
   (semi-modularity, [Mpart.verify], once per net [Oracle.certify]) sits
   outside it.

   [--trace 0] prints the end-to-end metrics; [--trace 1] replays the
   modular flow with spans around each library call ({!Mpbench.Replay}),
   checks the replay against [Mpart.synthesize], and prints the
   per-layer metrics.  The last line of standard output is one JSON
   object: [{"correct", "attempted", "failed", "metrics"}].  README.md
   defines every metric. *)

open Mpbench

let now_ns = Span.now_ns
let ms_of_ns ns = float ns /. 1e6

let usage msg =
  Printf.eprintf
    "mpbench: %s\n\
     usage: main.exe --workload %s --seed N --seconds S --trace 0|1\n"
    msg
    (String.concat "|" Workload.names);
  exit 2

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10; trace = false } in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      a := { !a with workload = v };
      go rest
    | "--seed" :: v :: rest ->
      a := { !a with seed = int_of "--seed" v };
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_of "--seconds" v in
      if s < 1 then usage "--seconds must be at least 1";
      a := { !a with seconds = s };
      go rest
    | "--trace" :: v :: rest ->
      let t =
        match v with
        | "0" -> false
        | "1" -> true
        | _ -> usage "--trace expects 0 or 1"
      in
      a := { !a with trace = t };
      go rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload Workload.names) then
    usage (Printf.sprintf "unknown workload %S" !a.workload);
  !a

(* Words allocated so far by every domain.  [Gc.quick_stat] sums the
   domains' samples, which a minor collection (stop-the-world in OCaml 5)
   brings up to date. *)
let all_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" Fun.id
          | Some _ -> find ()
        in
        find ())
  in
  kb /. 1024.0

(* --- correctness bookkeeping ------------------------------------------ *)

type net_record = {
  mutable latencies : float list;  (** wall-clock ms, one per pass *)
  mutable ref_latencies : float list;  (** reference ms, one per pass *)
  mutable first : Op.signature option;  (** the net's first result in the run *)
}

let new_records (w : Workload.t) =
  List.map
    (fun (n : Workload.net) ->
      (n.Workload.name, { latencies = []; ref_latencies = []; first = None }))
    w.Workload.nets

let attempted = ref 0
let failed = ref 0

let fail (net : Workload.net) msg =
  incr failed;
  Printf.printf "FAIL %s: %s\n%!" net.Workload.name msg

(* Checks one operation's outcome outside the timed region; the net's
   first success in the run is also certified (once per net per run) and
   its signature printed.  [certify] wraps the oracle call (a span when
   tracing). *)
let check_outcome ~certify (net : Workload.net) rc outcome =
  incr attempted;
  match outcome with
  | Error msg -> fail net msg
  | Ok r -> (
    match Op.check r with
    | Some msg -> fail net msg
    | None -> (
      let s = Op.signature r in
      match rc.first with
      | Some s0 when s0 <> s -> fail net "result differs from this run's first pass"
      | Some _ -> ()
      | None ->
        rc.first <- Some s;
        let verdict = certify r in
        Printf.printf "net %-16s literals %4d  state_signals %2d  netlist %s  certify %s\n%!"
          net.Workload.name s.Op.literals s.Op.state_signals s.Op.netlist_digest
          (match verdict with None -> "pass" | Some m -> m);
        Option.iter (fail net) verdict))

(* --- calibration --------------------------------------------------------- *)

(* The host's speed drifts by up to a quarter within seconds (other
   tenants on shared cores), which no run length averages away: raw
   wall-clock medians of identical runs spread by 10-25%.  So every
   end-to-end time is divided by the wall time of a fixed calibration
   kernel measured in the same process around it, and reported in
   reference units: one reference millisecond is one run of the kernel.
   The kernel allocates like the program does (a growing hash table of
   small lists), so it slows down with the program when the host does;
   dividing by it brought the spread of identical runs down to a few
   percent.  It is benchmark code, so a change to the program does not
   move it.  The raw wall-clock figures are printed alongside. *)
let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i land 4095) [ i; i + 1 ]
  done;
  ignore (Sys.opaque_identity h)

(* One sample runs the kernel once on each of [jobs] domains at the same
   time, through the same pool the operation uses, so a workload that
   runs on two cores is calibrated against both. *)
let kernel_samples ~jobs =
  List.init 3 (fun _ ->
      let t0 = now_ns () in
      ignore (Pool.map_list ~jobs kernel (List.init jobs (fun _ -> ())));
      float (now_ns () - t0))

(* [in_ref_ms ~kernel ns]: a wall-clock duration in reference ms, given
   the kernel's samples taken around it; the median drops a sample that
   a momentary stall inflated. *)
let in_ref_ms ~kernel ns = float ns /. Stats.median kernel

(* --- set-up ------------------------------------------------------------ *)

let setup_round name =
  let w =
    try Workload.build name with
    | Sys_error msg ->
      Printf.eprintf "mpbench: %s (run from the repository root)\n" msg;
      exit 2
  in
  Gc.compact ();
  ignore (Op.run ~jobs:w.Workload.jobs (Workload.warmup w));
  w

(* Set-up is done five times; [setup_s] is the median, in reference
   seconds (see above), and the raw wall-clock median is returned too.
   The first round is timed from the start of [main], so module
   initialization and the pool's lazy domain spawning land in it. *)
let setup ~t_start name =
  let round t0 =
    let w = setup_round name in
    let ns = now_ns () - t0 in
    Gc.compact ();
    let kernel = kernel_samples ~jobs:w.Workload.jobs in
    (w, in_ref_ms ~kernel ns /. 1e3, float ns /. 1e9)
  in
  let rounds = List.init 5 (fun i -> round (if i = 0 then t_start else now_ns ())) in
  let w, _, _ = List.hd rounds in
  ( w,
    Stats.median (List.map (fun (_, r, _) -> r) rounds),
    Stats.median (List.map (fun (_, _, s) -> s) rounds) )

(* --- output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let correct = !failed = 0 in
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
          (json_number v) (Span.json_string unit_))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields)

(* --- untraced run: end-to-end metrics ----------------------------------- *)

let run_untraced args (w : Workload.t) ~setup_s ~setup_wall_s =
  let records = new_records w in
  let n_nets = float (List.length w.Workload.nets) in
  let pass_rates = ref [] and wall_rates = ref [] and pass_allocs = ref [] in
  let kernels = ref [] in
  let deadline = now_ns () + (args.seconds * 1_000_000_000) in
  let pass = ref 0 in
  while !pass = 0 || now_ns () < deadline do
    let busy = ref 0.0 and wall = ref 0 and alloc = ref 0.0 in
    List.iter
      (fun (net : Workload.net) ->
        let rc = List.assoc net.Workload.name records in
        (* each kernel run and the operation start from a collected heap,
           so no one pays another's collection debt *)
        Gc.compact ();
        let before = kernel_samples ~jobs:w.Workload.jobs in
        Gc.compact ();
        let w0 = all_words () in
        let t0 = now_ns () in
        let outcome = Op.run ~jobs:w.Workload.jobs net in
        let t1 = now_ns () in
        alloc := !alloc +. (all_words () -. w0);
        Gc.compact ();
        let kernel = before @ kernel_samples ~jobs:w.Workload.jobs in
        kernels := Stats.median kernel :: !kernels;
        let ref_ms = in_ref_ms ~kernel (t1 - t0) in
        busy := !busy +. ref_ms;
        wall := !wall + (t1 - t0);
        rc.latencies <- ms_of_ns (t1 - t0) :: rc.latencies;
        rc.ref_latencies <- ref_ms :: rc.ref_latencies;
        check_outcome ~certify:Op.certify net rc outcome)
      (Workload.shuffled ~seed:args.seed ~pass:!pass w.Workload.nets);
    pass_rates := (n_nets /. (!busy /. 1e3)) :: !pass_rates;
    wall_rates := (n_nets /. (float !wall /. 1e9)) :: !wall_rates;
    pass_allocs := (!alloc /. 1e6) :: !pass_allocs;
    incr pass
  done;
  let gmean_of f = Stats.gmean (List.map (fun (_, rc) -> Stats.median (f rc)) records) in
  let gmean = gmean_of (fun rc -> rc.ref_latencies) in
  let q1, q2, q3 =
    Stats.quartiles (List.map (fun (_, rc) -> Stats.median rc.ref_latencies) records)
  in
  let sum f =
    float
      (List.fold_left
         (fun acc (_, rc) -> acc + match rc.first with Some s -> f s | None -> 0)
         0 records)
  in
  Printf.printf "workload %s: %d nets, jobs %d, %d passes, seed %d\n" w.Workload.name
    (List.length w.Workload.nets) w.Workload.jobs !pass args.seed;
  Printf.printf "per-net latency in reference ms (wall-clock ms in brackets)\n";
  List.iter
    (fun (name, rc) ->
      let q1, q2, q3 = Stats.quartiles rc.ref_latencies in
      Printf.printf "  %-16s median %9.2f  q1 %9.2f  q3 %9.2f  [%9.2f ms]  (n=%d)\n" name q2 q1
        q3 (Stats.median rc.latencies) (List.length rc.ref_latencies))
    records;
  Printf.printf
    "net_ms.gmean %.3f reference ms over %d per-net medians (quartiles of the medians %.2f / \
     %.2f / %.2f)\n"
    gmean (List.length records) q1 q2 q3;
  Printf.printf
    "wall clock: nets_per_s %.3f, net_ms.gmean %.3f ms, setup %.4f s; calibration kernel median \
     %.3f ms\n"
    (Stats.median !wall_rates)
    (gmean_of (fun rc -> rc.latencies))
    setup_wall_s
    (Stats.median !kernels /. 1e6);
  Printf.printf "state_signals %.0f  fail_frac %.4f (%d of %d)\n"
    (sum (fun s -> s.Op.state_signals))
    (float !failed /. float (max 1 !attempted))
    !failed !attempted;
  print_result
    [
      ("nets_per_s", "1/s", Stats.median !pass_rates);
      ("net_ms.gmean", "ms", gmean);
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MB", peak_rss_mb ());
      ("alloc_mw", "Mword", Stats.median !pass_allocs);
      ("area_literals", "count", sum (fun s -> s.Op.literals));
      ("final_signals", "count", sum (fun s -> s.Op.final_signals));
      ("ok_frac", "ratio", float (!attempted - !failed) /. float (max 1 !attempted));
    ]

(* --- traced run: per-layer metrics ------------------------------------- *)

(* Per-layer metrics, in the order they are printed.  Timings ([_ms])
   are self times; [_alloc_mw] are words allocated inside the span,
   children included. *)
let self_time_layers =
  [
    "stg.parse"; "analysis.lint"; "analysis.prescreen"; "analysis.partition";
    "unfold.prefix"; "petri.reach"; "symbolic.reach"; "core.determine";
    "core.propagate"; "sat.solve"; "stategraph.minimize"; "stategraph.expand";
    "stategraph.csc_check"; "stategraph.persistency"; "logic2.derive";
    "exec.batch"; "exec.task";
  ]

let alloc_layers =
  [ "core.determine"; "stategraph.minimize"; "logic2.derive"; "petri.reach"; "symbolic.reach" ]

let run_traced args (w : Workload.t) =
  let records = new_records w in
  let jobs = w.Workload.jobs in
  let untraced_ns = ref 0 and traced_ns = ref 0 in
  let pass = ref 0 in
  let certify r =
    let sims = Sim_calls.total () in
    let v = Span.record "verify.certify" (fun () -> Op.certify r) in
    Span.add "verify.dynamic_checks" (float (Sim_calls.total () - sims));
    v
  in
  Span.reset ();
  let deadline = now_ns () + (args.seconds * 1_000_000_000) in
  while !pass = 0 || now_ns () < deadline do
    List.iter
      (fun (net : Workload.net) ->
        let rc = List.assoc net.Workload.name records in
        Span.set_context ~net:net.Workload.name ~pass:!pass;
        Gc.compact ();
        let t0 = now_ns () in
        let outcome = Op.run ~jobs net in
        let t1 = now_ns () in
        untraced_ns := !untraced_ns + (t1 - t0);
        Gc.compact ();
        let solver = Solver_calls.total ()
        and reach = Reach_calls.total ()
        and sym = Symbolic_calls.total () in
        let t2 = now_ns () in
        let replayed = try Ok (Replay.run ~jobs net) with e -> Error (Op.describe e) in
        let t3 = now_ns () in
        traced_ns := !traced_ns + (t3 - t2);
        Span.add "sat.calls" (float (Solver_calls.total () - solver));
        Span.add "petri.explorations" (float (Reach_calls.total () - reach));
        Span.add "symbolic.explorations" (float (Symbolic_calls.total () - sym));
        let outcome =
          match (outcome, replayed) with
          | Ok r, Ok rr ->
            if Sg.digest r.Mpart.expanded <> Sg.digest rr.Replay.expanded then
              Error "replay: expanded graph digest differs from Mpart.synthesize"
            else if Op.covers_text r.Mpart.functions <> Op.covers_text rr.Replay.functions
            then Error "replay: covers differ from Mpart.synthesize"
            else Ok r
          | Error m, Error _ -> Error m
          | Ok _, Error m -> Error ("replay failed where Mpart.synthesize succeeded: " ^ m)
          | Error m, Ok _ -> Error ("replay succeeded where Mpart.synthesize failed: " ^ m)
        in
        check_outcome ~certify net rc outcome)
      (Workload.shuffled ~seed:args.seed ~pass:!pass w.Workload.nets);
    incr pass
  done;
  let passes = !pass in
  let spans = Span.spans () in
  let selfs = Span.self_times spans in
  (* per pass: sum over the pass's spans of [f] *)
  let per_pass pred f =
    List.init passes (fun p ->
        List.fold_left
          (fun acc ((s : Span.t), self) -> if s.Span.pass = p && pred s then acc +. f s self else acc)
          0.0 selfs)
  in
  let by_name name (s : Span.t) = s.Span.name = name in
  let med = Stats.median in
  let self_ms name = med (per_pass (by_name name) (fun _ self -> ms_of_ns self)) in
  let calls name = med (per_pass (by_name name) (fun _ _ -> 1.0)) in
  let alloc_mw name = med (per_pass (by_name name) (fun s _ -> s.Span.alloc_w /. 1e6)) in
  let counter_per_pass name =
    List.init passes (fun p -> Option.value (Span.counter ~pass:p name) ~default:0.0)
  in
  let counter name = med (counter_per_pass name) in
  let ratio num den =
    med
      (List.map2 (fun n d -> if d > 0.0 then n /. d else 0.0) num den)
  in
  let run_total name =
    List.fold_left ( +. ) 0.0 (counter_per_pass name)
  in
  let determine_calls = per_pass (by_name "core.determine") (fun _ _ -> 1.0) in
  let task_ms = per_pass (by_name "exec.task") (fun s _ -> ms_of_ns (s.Span.stop_ns - s.Span.start_ns)) in
  let batch_ms = per_pass (by_name "exec.batch") (fun s _ -> ms_of_ns (s.Span.stop_ns - s.Span.start_ns)) in
  let certify_ms =
    List.fold_left
      (fun acc ((s : Span.t), self) -> if s.Span.name = "verify.certify" then acc +. ms_of_ns self else acc)
      0.0 selfs
  in
  (* Per-net accounting (first pass): the net span's duration is its
     descendants' self times plus its own remainder, less the overlap of
     spans that ran concurrently on other domains. *)
  Printf.printf "workload %s: %d nets, jobs %d, %d traced passes, seed %d\n" w.Workload.name
    (List.length w.Workload.nets) jobs passes args.seed;
  Printf.printf "per-net accounting (pass 0): net wall = layer self times + remainder - overlap\n";
  let children = Hashtbl.create 256 in
  List.iter (fun ((s : Span.t), self) -> Hashtbl.add children s.Span.parent (s, self)) selfs;
  let rec subtree_self id =
    List.fold_left
      (fun acc ((s : Span.t), self) -> acc + self + subtree_self s.Span.id)
      0 (Hashtbl.find_all children id)
  in
  List.iter
    (fun ((s : Span.t), self) ->
      if s.Span.name = "net" && s.Span.pass = 0 then begin
        let wall = s.Span.stop_ns - s.Span.start_ns in
        let layers = subtree_self s.Span.id in
        Printf.printf "  %-16s wall %9.2f ms  layers %9.2f  remainder %7.2f  overlap %7.2f\n"
          s.Span.net (ms_of_ns wall) (ms_of_ns layers) (ms_of_ns self)
          (ms_of_ns (layers + self - wall))
      end)
    selfs;
  Printf.printf "per-layer self time per pass (median of %d passes)\n" passes;
  List.iter
    (fun name ->
      Printf.printf "  %-24s %10.3f ms  %6.0f calls%s\n" name (self_ms name) (calls name)
        (if List.mem name alloc_layers then Printf.sprintf "  %9.3f Mword" (alloc_mw name) else ""))
    ("net" :: self_time_layers);
  let overhead = (float !traced_ns /. float (max 1 !untraced_ns)) -. 1.0 in
  Printf.printf "tracing overhead: traced %.1f ms vs untraced %.1f ms over the run (%+.2f%%)\n"
    (ms_of_ns !traced_ns) (ms_of_ns !untraced_ns) (100.0 *. overhead);
  let file = Printf.sprintf ".mpbench/trace-%s.json" w.Workload.name in
  (try
     if not (Sys.file_exists ".mpbench") then Sys.mkdir ".mpbench" 0o755;
     Out_channel.with_open_bin file (fun oc -> output_string oc (Span.chrome_json spans));
     Printf.printf "chrome trace: %s (%d spans)\n" file (List.length spans)
   with Sys_error msg -> Printf.printf "chrome trace not written: %s\n" msg);
  print_result
    ([
       ("stg.parse_ms", "ms", self_ms "stg.parse");
       ("analysis.lint_ms", "ms", self_ms "analysis.lint");
       ("analysis.prescreen_ms", "ms", self_ms "analysis.prescreen");
       ("analysis.partition_ms", "ms", self_ms "analysis.partition");
       ("analysis.dup_cones", "count", counter "analysis.dup_cones");
       ("unfold.prefix_ms", "ms", self_ms "unfold.prefix");
       ("unfold.prefix_events", "count", counter "unfold.prefix_events");
       ("petri.reach_ms", "ms", self_ms "petri.reach");
       ("petri.explorations", "count", counter "petri.explorations");
       ("symbolic.reach_ms", "ms", self_ms "symbolic.reach");
       ("symbolic.explorations", "count", counter "symbolic.explorations");
       ("stategraph.complete_states", "count", counter "stategraph.complete_states");
       ("core.determine_ms", "ms", self_ms "core.determine");
       ("core.determine_calls", "count", med determine_calls);
       ( "core.determine_useful_ratio", "ratio",
         ratio (counter_per_pass "core.outputs") determine_calls );
       ("core.module_states", "count", counter "core.module_states");
       ("core.propagate_ms", "ms", self_ms "core.propagate");
       ("core.replayed_cones", "count", counter "core.replayed_cones");
       ("core.remainder_ms", "ms", self_ms "net");
       ("sat.solve_ms", "ms", self_ms "sat.solve");
       ("sat.calls", "count", counter "sat.calls");
       ("sat.accept_ratio", "ratio", ratio (counter_per_pass "sat.accepted") (counter_per_pass "sat.calls"));
       ("stategraph.minimize_ms", "ms", self_ms "stategraph.minimize");
       ("stategraph.implementable_checks", "count", counter "stategraph.implementable_checks");
       ( "stategraph.minimize_kept_ratio", "ratio",
         ratio (counter_per_pass "stategraph.minimize_kept")
           (counter_per_pass "stategraph.minimize_candidates") );
       ("stategraph.expand_ms", "ms", self_ms "stategraph.expand");
       ("stategraph.expanded_states_max", "count", counter "stategraph.expanded_states_max");
       ("stategraph.csc_check_ms", "ms", self_ms "stategraph.csc_check");
       ("stategraph.persistency_ms", "ms", self_ms "stategraph.persistency");
       ("logic2.derive_ms", "ms", self_ms "logic2.derive");
       ("logic2.covers", "count", counter "logic2.covers");
       ("verify.certify_ms", "ms", certify_ms);
       ("verify.dynamic_checks", "count", run_total "verify.dynamic_checks");
       ("exec.batch_ms", "ms", self_ms "exec.batch");
       ( "exec.parallel_efficiency", "ratio",
         ratio task_ms (List.map (fun b -> float jobs *. b) batch_ms) );
     ]
    @ List.map (fun name -> (name ^ "_alloc_mw", "Mword", alloc_mw name)) alloc_layers)

let () =
  let t_start = now_ns () in
  let args = parse_args () in
  let w, setup_s, setup_wall_s = setup ~t_start args.workload in
  if args.trace then run_traced args w else run_untraced args w ~setup_s ~setup_wall_s
