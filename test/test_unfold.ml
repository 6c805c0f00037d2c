(* Complete-prefix unfolding engine and the exact U1-U4 rules.

   The engine's whole value is exactness, so the tests are agreement
   tests against explicit ground truth:
   - on every shipped benchmark, the U3/U4 verdicts equal [Reach] +
     [Sg.of_stg] + [Csc];
   - the same property holds on a pinned-seed fuzz sweep of random
     well-formed STGs;
   - the [mpsyn-prefix/1] certificate's cutoff witnesses replay: firing
     the witness and its companion sequence from the initial marking
     reaches the same marking;
   - the counters prove the exploration contract: one [Reach.explore]
     per analysis of a complete prefix, none behind a truncated one;
     and synthesis of the parallel-rings family, which U3 certifies
     while the A6 lock-relation prescreen provably abstains, skips SAT
     entirely. *)

let check b msg = Alcotest.(check bool) msg true b

(* ---------------- exact agreement with the explicit graph ----------- *)

let check_agreement stg =
  let g = Reach.explore (Stg.net stg) in
  let sg = Sg.of_stg stg in
  let p = Prefix_rules.analyze stg in
  check p.Prefix_rules.s_complete "prefix complete";
  check (p.Prefix_rules.s_unsafe = None) "U1: no unsafeness refutation";
  check (p.Prefix_rules.s_autoconc = []) "U2: no autoconcurrency";
  (* U3/U4 verdicts against Sg/Csc ground truth *)
  Alcotest.(check (option int))
    "U4 marking count" (Some (Reach.n_states g)) p.Prefix_rules.s_markings;
  Alcotest.(check (option int))
    "U4 edge count" (Some (Reach.n_edges g)) p.Prefix_rules.s_edges;
  Alcotest.(check (option int))
    "U4 eps-quotient size" (Some (Sg.n_states sg)) p.Prefix_rules.s_sg_states;
  Alcotest.(check (option bool))
    "U3 USC" (Some (Csc.usc_satisfied sg)) p.Prefix_rules.s_usc;
  Alcotest.(check (option bool))
    "U3 CSC" (Some (Csc.csc_satisfied sg)) p.Prefix_rules.s_csc;
  Alcotest.(check (option int))
    "U3 conflict pairs" (Some (Csc.n_conflicts sg)) p.Prefix_rules.s_conflicts

let test_benchmark name () =
  match List.assoc_opt name Bench_data.all with
  | Some build -> check_agreement (build ())
  | None -> Alcotest.fail ("no such benchmark: " ^ name)

(* ---------------- pinned-seed fuzz sweep --------------------------- *)

let n_fuzz = 50

let test_fuzz_agreement () =
  let rand = Qseed.state () in
  for _ = 1 to n_fuzz do
    check_agreement (Bench_gen.random ~rand)
  done

(* One qcheck property over the same generator: every U3/U4 field of
   the summary — marking and edge counts, quotient size, USC, CSC and
   the conflict count — equals the explicit construction's at once, for
   arbitrary well-formed STGs.  Kept alongside the exhaustive sweep so a
   failure shrinks and reports the seed through the standard qcheck
   machinery. *)
let u3_u4 (p : Prefix_rules.summary) =
  Prefix_rules.
    (p.s_markings, p.s_edges, p.s_sg_states, p.s_usc, p.s_csc, p.s_conflicts)

let prop_marking_count =
  QCheck.Test.make ~count:n_fuzz ~name:"prefix marking count = Reach count"
    (QCheck.make (fun rand -> Bench_gen.random ~rand))
    (fun stg ->
      let g = Reach.explore (Stg.net stg) in
      let sg = Sg.of_stg stg in
      u3_u4 (Prefix_rules.analyze stg)
      = ( Some (Reach.n_states g),
          Some (Reach.n_edges g),
          Some (Sg.n_states sg),
          Some (Csc.usc_satisfied sg),
          Some (Csc.csc_satisfied sg),
          Some (Csc.n_conflicts sg) ))

(* ---------------- certificate replay ------------------------------- *)

(* Pull every "fire"/"companion_fire" name sequence out of the
   certificate JSON with a dumb scanner (benchmark transition names
   need no unescaping), and machine-check the cutoff claims: both
   sequences must be fireable from the initial marking and land on the
   same marking.  That is exactly what makes a cutoff sound. *)
let scan_sequences key json =
  let needle = Printf.sprintf "\"%s\":[" key in
  let nl = String.length needle and jl = String.length json in
  let rec find acc i =
    if i + nl > jl then List.rev acc
    else if String.sub json i nl = needle then begin
      let close = String.index_from json (i + nl) ']' in
      let body = String.sub json (i + nl) (close - (i + nl)) in
      let names =
        if body = "" then []
        else
          List.map
            (fun s ->
              let s = String.trim s in
              String.sub s 1 (String.length s - 2))
            (String.split_on_char ',' body)
      in
      find (names :: acc) close
    end
    else find acc (i + 1)
  in
  find [] 0

let fire_sequence net names =
  let find_trans n =
    let rec go t =
      if t >= Petri.n_transitions net then
        Alcotest.fail ("certificate names unknown transition " ^ n)
      else if Petri.transition_name net t = n then t
      else go (t + 1)
    in
    go 0
  in
  List.fold_left
    (fun m n ->
      let t = find_trans n in
      check (Petri.enabled net m t) ("witness transition enabled: " ^ n);
      Petri.fire net m t)
    (Petri.initial_marking net)
    names

let test_cert_replay name () =
  let stg = (List.assoc name Bench_data.all) () in
  let net = Stg.net stg in
  let u = Unfold.build net in
  let cert = Unfold.cert_json u in
  check
    (String.length cert > 0
    && String.sub cert 0 26 = "{\"schema\":\"mpsyn-prefix/1\"")
    "certificate carries its schema";
  let fires = scan_sequences "fire" cert in
  let comps = scan_sequences "companion_fire" cert in
  Alcotest.(check int)
    "one witness per cutoff" (Unfold.n_cutoffs u) (List.length fires);
  Alcotest.(check int) "paired sequences" (List.length fires)
    (List.length comps);
  List.iter2
    (fun f c ->
      let mf = fire_sequence net f and mc = fire_sequence net c in
      Alcotest.(check string)
        "cutoff and companion reach the same marking" (Marking.pack mc)
        (Marking.pack mf))
    fires comps

(* ---------------- counters prove the exploration contract --------- *)

(* U3/U4 read one explicit exploration, and only behind a complete
   prefix: the whole analysis — prefix, exploration, coding,
   diagnostics — moves the Reach counter by exactly one.  A truncated
   prefix explores nothing; U3/U4 abstain and U0 says why. *)
let test_one_reach_call () =
  let stg = (List.assoc "vbe4a" Bench_data.all) () in
  Reach_calls.reset ();
  let p = Prefix_rules.analyze stg in
  let _ = Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p in
  check p.Prefix_rules.s_complete "prefix complete";
  Alcotest.(check int) "one Reach.explore call" 1 (Reach_calls.total ());
  Reach_calls.reset ();
  let p = Prefix_rules.analyze ~max_events:5 stg in
  let ds = Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p in
  check (not p.Prefix_rules.s_complete) "prefix truncated";
  Alcotest.(check int) "zero Reach.explore calls" 0 (Reach_calls.total ());
  check
    (u3_u4 p = (None, None, None, None, None, None)
    && p.Prefix_rules.s_coexcited = None)
    "U3/U4 abstain";
  check
    (List.exists (fun d -> d.Diagnostic.rule = "U0-prefix") ds)
    "U0-prefix records the abstention"

(* Parallel rings: CSC holds but cross-ring pairs never alternate, so
   the A6 lock relation abstains — only the exact U3 verdict certifies
   the family, and synthesis, which finds CSC on the complete graph,
   provably never calls a solver. *)
let test_parallel_rings_prescreen rings () =
  let stg = Bench_gen.parallel_rings ~rings in
  check (Lint.prescreen stg = None) "A6 abstains on parallel rings";
  Alcotest.(check (option bool))
    "U3 certifies parallel rings" (Some true)
    (Prefix_rules.analyze stg).Prefix_rules.s_csc;
  Solver_calls.reset ();
  let r = Mpart.synthesize stg in
  check r.Mpart.csc_certified "synthesis saw the certificate";
  Alcotest.(check int) "zero solver calls" 0 (Solver_calls.total ());
  Alcotest.(check (option string)) "verified" None (Mpart.verify r);
  (* the partial-order saving the family exists to demonstrate *)
  let u = Unfold.build (Stg.net stg) in
  let g = Reach.explore (Stg.net stg) in
  check
    (Unfold.n_noncutoff u < Reach.n_states g)
    "prefix (non-cutoff events) smaller than the state graph"

(* Synthesis certifies CSC on the complete graph it builds.  Wherever
   the prefix finishes, that verdict must also equal the certificate the
   static prescreens give — A6's lock relation, or else U3 — so the two
   ways of deciding whether SAT runs cannot drift apart. *)
let check_certificate name stg =
  let r = Mpart.synthesize stg in
  let csc = Csc.csc_satisfied r.Mpart.complete in
  Alcotest.(check bool) (name ^ ": certified iff CSC holds") csc
    r.Mpart.csc_certified;
  match (Prefix_rules.analyze stg).Prefix_rules.s_csc with
  | None -> ()
  | Some u3 ->
    Alcotest.(check bool) (name ^ ": agrees with A6 || U3") csc
      (Lint.prescreen stg <> None || u3)

let test_certificate_corpus () =
  let data = Filename.concat ".." "data" in
  Sys.readdir data |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare
  |> List.iter (fun f ->
         check_certificate f (Gformat.parse_file (Filename.concat data f)))

let test_certificate_families () =
  List.iter
    (fun (name, stg) -> check_certificate name stg)
    (List.map
       (fun n ->
         (Printf.sprintf "lock_ring-%d" n, Bench_gen.lock_ring ~signals:n))
       [ 3; 6; 10 ]
    @ List.map
        (fun n ->
          (Printf.sprintf "parrings-%d" n, Bench_gen.parallel_rings ~rings:n))
        [ 2; 3; 5 ]
    @ List.map
        (fun n ->
          (Printf.sprintf "pipeline-%d" n, Bench_gen.pipeline ~stages:n))
        [ 2; 4; 10 ]
    @ List.map
        (fun k ->
          ( Printf.sprintf "pulsers-%d" k,
            Bench_gen.concurrent_pulsers ~branches:k ))
        [ 2; 3; 4 ])

let test_certificate_fuzz () =
  let rand = Qseed.state () in
  for i = 1 to n_fuzz do
    check_certificate
      (Printf.sprintf "fuzz %d (QCHECK_SEED=%d)" i Qseed.seed)
      (Bench_gen.random ~rand)
  done

let test_lockring_bound signals () =
  let stg = Bench_gen.lock_ring ~signals in
  let u = Unfold.build (Stg.net stg) in
  let g = Reach.explore (Stg.net stg) in
  check (Unfold.complete u) "complete";
  check
    (Unfold.n_noncutoff u < Reach.n_states g)
    "prefix smaller than state graph"

(* ---------------- U1/U2 refute with witnesses ---------------------- *)

(* Two tokens feed the same cycle: place q ends up doubly marked.  U1
   must refute with a replayable firing sequence; rule A2 (structural)
   cannot prove anything either way here. *)
let test_unsafe_witness () =
  let src =
    ".model unsafe\n.inputs a\n.outputs b\n.graph\na- a+ b+\na+ p\nb+ p\np \
     a-\n.marking { <a-,a+> <a-,b+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let p = Prefix_rules.analyze stg in
  match p.Prefix_rules.s_unsafe with
  | None -> Alcotest.fail "U1 missed an unsafe net"
  | Some (place, fire) ->
    let net = Stg.net stg in
    let m =
      List.fold_left (fun m t -> Petri.fire net m t) (Petri.initial_marking net)
        fire
    in
    check (Marking.tokens m place >= 2) "witness doubles the reported place"

(* Same signal on two parallel branches: exact autoconcurrency, an
   error A5 can only warn about. *)
let test_autoconc_refutation () =
  let src =
    ".model autoc\n.inputs a\n.outputs b\n.graph\na+ b+ b+/2\nb+ a-\nb+/2 \
     a-\na- a+\n.marking { <a-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let p = Prefix_rules.analyze stg in
  check (p.Prefix_rules.s_autoconc <> []) "U2 detects the concurrent pair";
  let ds = Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.rule = "U2-autoconcurrency"
         && d.Diagnostic.severity = Diagnostic.Error)
       ds)
    "U2 reports an error"

(* ---------------- determinism across pool widths ------------------- *)

let test_jobs_deterministic () =
  List.iter
    (fun stg ->
      let net = Stg.net stg in
      let u1 = Unfold.build ~jobs:1 net and u4 = Unfold.build ~jobs:4 net in
      Alcotest.(check string)
        "certificates byte-identical" (Unfold.cert_json u1)
        (Unfold.cert_json u4);
      check
        (Prefix_rules.analyze ~jobs:1 stg = Prefix_rules.analyze ~jobs:4 stg)
        "summaries identical")
    [
      (List.assoc "mr0" Bench_data.all) ();
      Bench_gen.parallel_rings ~rings:4;
      Bench_gen.mixed ~stages:2 ~branches:3;
    ]

(* ---------------- A4 worklist regression (satellite) --------------- *)

(* The dead-transition rule was rewritten from a repeat-until-stable
   rescan to a worklist; the lock-ring family (every transition
   reachable only through the whole ring) and a reverse-declared chain
   (later-id transitions feed earlier-id ones, the order the old rescan
   leaned on) pin its behaviour. *)
let test_deadcode_worklist () =
  let all_fireable stg =
    let net = Stg.net stg in
    let f = Deadcode.potentially_fireable net in
    Array.for_all Fun.id f
  in
  check
    (all_fireable (Bench_gen.lock_ring ~signals:26))
    "every lock-ring transition is potentially fireable";
  (* declaration order deliberately anti-topological *)
  let src =
    ".model chain\n.inputs a\n.outputs b c\n.graph\nc+ a-\nb+ c+\na+ b+\na- \
     a+\n.marking { <a-,a+> }\n.end\n"
  in
  check (all_fireable (Gformat.parse_string src)) "reverse-declared chain live";
  let dead =
    ".model dead\n.inputs a\n.outputs b\n.graph\na+ a-\na- a+\nb+ b-\nb- \
     b+\n.marking { <a-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string dead in
  let f = Deadcode.potentially_fireable (Stg.net stg) in
  check
    (not (Array.for_all Fun.id f))
    "unmarked component stays dead under the worklist"

let () =
  Qseed.announce ();
  let agreement =
    List.map
      (fun (name, _) -> Alcotest.test_case name `Quick (test_benchmark name))
      Bench_data.all
  in
  Alcotest.run "unfold"
    [
      ("benchmark agreement", agreement);
      ( "fuzz agreement",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random STGs agree with Reach" n_fuzz)
            `Slow test_fuzz_agreement;
          Qseed.to_alcotest prop_marking_count;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "mr0 cutoff witnesses replay" `Quick
            (test_cert_replay "mr0");
          Alcotest.test_case "vbe4a cutoff witnesses replay" `Quick
            (test_cert_replay "vbe4a");
        ] );
      ( "counters",
        [
          Alcotest.test_case "U3/U4 explore once" `Quick test_one_reach_call;
          Alcotest.test_case "parallel-rings3: U3 certifies, SAT skipped"
            `Quick
            (test_parallel_rings_prescreen 3);
          Alcotest.test_case "parallel-rings5: U3 certifies, SAT skipped"
            `Quick
            (test_parallel_rings_prescreen 5);
          Alcotest.test_case "lock-ring8 prefix < states" `Quick
            (test_lockring_bound 8);
        ] );
      ( "csc certificate",
        [
          Alcotest.test_case "data/*.g" `Quick test_certificate_corpus;
          Alcotest.test_case "generated families" `Quick
            test_certificate_families;
          Alcotest.test_case
            (Printf.sprintf "%d random STGs" n_fuzz)
            `Slow test_certificate_fuzz;
        ] );
      ( "refutations",
        [
          Alcotest.test_case "U1 unsafe witness replays" `Quick
            test_unsafe_witness;
          Alcotest.test_case "U2 exact autoconcurrency" `Quick
            test_autoconc_refutation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "--jobs 1 = --jobs 4" `Quick
            test_jobs_deterministic;
        ] );
      ( "deadcode worklist",
        [ Alcotest.test_case "A4 regression" `Quick test_deadcode_worklist ]
      );
    ]
