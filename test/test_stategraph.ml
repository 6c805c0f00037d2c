(* Tests for Fourval, Sg (derivation, quotient), Csc, Region_minimize and
   Sg_expand. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the canonical conflict example: r+ a+ a- r- *)
let pulse_stg () =
  Stg_builder.(
    compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))

let pulse_sg () = Sg.of_stg (pulse_stg ())

(* ---------------- Fourval ---------------- *)

let test_fourval_binary () =
  check "V0" false (Fourval.binary Fourval.V0);
  check "Up" false (Fourval.binary Fourval.Up);
  check "V1" true (Fourval.binary Fourval.V1);
  check "Dn" true (Fourval.binary Fourval.Dn)

let test_fourval_edges () =
  let legal =
    [
      (Fourval.V0, Fourval.V0); (Fourval.V1, Fourval.V1);
      (Fourval.Up, Fourval.Up); (Fourval.Dn, Fourval.Dn);
      (Fourval.V0, Fourval.Up); (Fourval.Up, Fourval.V1);
      (Fourval.V1, Fourval.Dn); (Fourval.Dn, Fourval.V0);
    ]
  in
  let all = [ Fourval.V0; Fourval.V1; Fourval.Up; Fourval.Dn ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check
            (Printf.sprintf "%s->%s" (Fourval.to_string a) (Fourval.to_string b))
            (List.mem (a, b) legal)
            (Fourval.edge_ok a b))
        all)
    all

let test_fourval_merge () =
  let module F = Fourval in
  check "single" true (F.merge [ F.V0 ] = Some F.V0);
  check "0 and Up" true (F.merge [ F.V0; F.Up ] = Some F.Up);
  check "chain 0 Up 1" true (F.merge [ F.V0; F.Up; F.V1 ] = Some F.Up);
  check "1 Dn 0" true (F.merge [ F.V1; F.Dn; F.V0 ] = Some F.Dn);
  check "0 and 1 alone" true (F.merge [ F.V0; F.V1 ] = None);
  check "Up and Dn" true (F.merge [ F.Up; F.Dn ] = None);
  check "empty" true (F.merge [] = None)

let test_fourval_bits () =
  List.iter
    (fun v ->
      let a, b = Fourval.to_bits v in
      check "roundtrip" true (Fourval.of_bits ~a ~b = v))
    [ Fourval.V0; Fourval.V1; Fourval.Up; Fourval.Dn ]

(* ---------------- Derivation ---------------- *)

let test_of_stg_codes () =
  let sg = pulse_sg () in
  check_int "states" 4 (Sg.n_states sg);
  check_int "edges" 4 (Sg.n_edges sg);
  check_int "initial code" 0 (Sg.code sg (Sg.initial sg));
  (* consistency along every edge is checked by the constructor; spot
     check that both 10-coded states exist *)
  let codes = List.init (Sg.n_states sg) (Sg.code sg) in
  check_int "two states with code 01(r=1,a=0)" 2
    (List.length (List.filter (( = ) 1) codes))

let test_of_stg_inconsistent () =
  (* r+ ; r+ in sequence is inconsistent *)
  let open Stg_builder in
  let stg =
    compile ~name:"bad" ~inputs:[ "r" ] ~outputs:[]
      (seq [ plus "r"; plus "r"; minus "r"; minus "r" ])
  in
  check "raises" true
    (try
       ignore (Sg.of_stg stg);
       false
     with Sg.Inconsistent _ -> true)

let test_of_stg_dummy_contraction () =
  let open Stg_builder in
  (* nop compiles to a dummy transition that must disappear *)
  let stg =
    compile ~name:"d" ~inputs:[ "r" ] ~outputs:[]
      (seq [ plus "r"; nop; minus "r" ])
  in
  let sg = Sg.of_stg stg in
  check_int "dummy merged away" 2 (Sg.n_states sg)

let test_of_stg_toggle_resolution () =
  let src =
    ".model tog\n.inputs a\n.outputs b\n.graph\na~ b~\nb~ a~/2\na~/2 b~/2\n\
     b~/2 a~\n.marking { <b~/2,a~> }\n.end\n"
  in
  let sg = Sg.of_stg (Gformat.parse_string src) in
  (* toggles resolve to concrete rise/fall labels *)
  check_int "four states" 4 (Sg.n_states sg);
  Array.iter
    (fun e ->
      match e.Sg.label with
      | Sg.Ev (_, _) -> ()
      | Sg.Eps -> Alcotest.fail "ε edge survived")
    (Sg.edges sg)

let test_implied_value () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  (* in the state after r+, a is excited to rise: implied 1 *)
  let m1 =
    List.find
      (fun m -> Sg.code sg m = 1 && List.mem (a, Sg.R) (Sg.excited_events sg m))
      (List.init (Sg.n_states sg) Fun.id)
  in
  check "implied 1" true (Sg.implied_value sg m1 a);
  (* in the state after a-, a is stable 0: implied 0 *)
  let m3 =
    List.find
      (fun m ->
        Sg.code sg m = 1 && not (List.mem (a, Sg.R) (Sg.excited_events sg m)))
      (List.init (Sg.n_states sg) Fun.id)
  in
  check "implied 0" false (Sg.implied_value sg m3 a)

(* ---------------- CSC ---------------- *)

let test_csc_conflict () =
  let sg = pulse_sg () in
  check_int "one class" 1 (List.length (Csc.code_classes sg));
  check_int "one conflict" 1 (Csc.n_conflicts sg);
  check_int "max usc" 2 (Csc.max_usc sg);
  check_int "lower bound" 1 (Csc.lower_bound sg);
  check "csc violated" false (Csc.csc_satisfied sg);
  check "usc violated" false (Csc.usc_satisfied sg)

let test_csc_clean () =
  let open Stg_builder in
  let stg =
    compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "r"; minus "a" ])
  in
  let sg = Sg.of_stg stg in
  check "satisfied" true (Csc.csc_satisfied sg);
  check "usc" true (Csc.usc_satisfied sg);
  check_int "lb" 0 (Csc.lower_bound sg)

let test_output_conflicts () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  check_int "a has the conflict" 1
    (List.length (Csc.output_conflict_pairs sg ~output:a))

(* ---------------- Extras ---------------- *)

(* the canonical resolution: n rises between a+ and a-, falls after r- *)
let resolved_pulse () =
  let sg = pulse_sg () in
  (* states in firing order: 0:00 --r+-> 1:01(r) --a+-> 2:11 --a-> 3:01 --r-> 0 *)
  (* identify states by walking edges from initial *)
  let step m =
    match Sg.succ sg m with [ e ] -> e.Sg.dst | _ -> Alcotest.fail "det"
  in
  let m0 = Sg.initial sg in
  let m1 = step m0 in
  let m2 = step m1 in
  let m3 = step m2 in
  let values = Array.make 4 Fourval.V0 in
  values.(m0) <- Fourval.Dn;
  values.(m1) <- Fourval.V0;
  values.(m2) <- Fourval.Up;
  values.(m3) <- Fourval.V1;
  (Sg.add_extra sg ~name:"n" ~values, (m0, m1, m2, m3))

let test_add_extra () =
  let sg, _ = resolved_pulse () in
  check_int "one extra" 1 (Sg.n_extras sg);
  check "resolves csc" true (Csc.csc_satisfied sg);
  check_int "full width" 3 (Sg.full_width sg)

let test_add_extra_invalid () =
  let sg = pulse_sg () in
  let values = Array.make 4 Fourval.V0 in
  values.(Sg.initial sg) <- Fourval.V1;
  (* a 1 next to 0s violates edge consistency *)
  check "raises" true
    (try
       ignore (Sg.add_extra sg ~name:"n" ~values);
       false
     with Sg.Inconsistent _ -> true)

let test_set_extra_values () =
  let sg, (m0, m1, m2, m3) = resolved_pulse () in
  let values = Array.make 4 Fourval.V0 in
  values.(m1) <- Fourval.Up;
  values.(m2) <- Fourval.V1;
  values.(m3) <- Fourval.Dn;
  values.(m0) <- Fourval.V0;
  let sg' = Sg.set_extra_values sg ~index:0 ~values in
  check "still resolves" true (Csc.csc_satisfied sg')

(* ---------------- Quotient ---------------- *)

let test_quotient_hide_all_outputs () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  match Sg.quotient sg ~keep_signal:(fun s -> s <> a) ~keep_extra:(fun _ -> true) with
  | None -> Alcotest.fail "merge should succeed"
  | Some (q, cover) ->
    check_int "two states" 2 (Sg.n_states q);
    check_int "one signal" 1 (Sg.n_signals q);
    check_int "cover size" 4 (Array.length cover);
    Array.iter (fun c -> check "cover in range" true (c < 2)) cover

let test_quotient_preserves_extra () =
  (* a constant extra merges trivially under any hiding *)
  let sg = pulse_sg () in
  let sg =
    Sg.add_extra sg ~name:"n" ~values:(Array.make 4 Fourval.V0)
  in
  let r = Sg.find_signal sg "r" in
  (match
     Sg.quotient sg ~keep_signal:(fun s -> s <> r) ~keep_extra:(fun _ -> true)
   with
  | None -> Alcotest.fail "constant extra must merge"
  | Some (q, _) -> check_int "extra survives" 1 (Sg.n_extras q));
  (* whereas an extra that toggles across the hidden region is rejected:
     n falls inside r's return-to-zero (the resolved pulse assignment) *)
  let sg', _ = resolved_pulse () in
  let r' = Sg.find_signal sg' "r" in
  check "toggling extra rejected" true
    (Sg.quotient sg'
       ~keep_signal:(fun s -> s <> r')
       ~keep_extra:(fun _ -> true)
    = None)

let test_quotient_rejects_updn_merge () =
  (* extra rises and falls inside the hidden region: must be rejected *)
  let open Stg_builder in
  let stg =
    compile ~name:"q" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "a"; minus "r" ])
  in
  let sg = Sg.of_stg stg in
  let step m =
    match Sg.succ sg m with [ e ] -> e.Sg.dst | _ -> Alcotest.fail "det"
  in
  let m0 = Sg.initial sg in
  let m1 = step m0 in
  let m2 = step m1 in
  let m3 = step m2 in
  let values = Array.make 4 Fourval.V0 in
  values.(m1) <- Fourval.Up;
  values.(m2) <- Fourval.V1;
  values.(m3) <- Fourval.Dn;
  let sg = Sg.add_extra sg ~name:"n" ~values in
  let a = Sg.find_signal sg "a" in
  (* hiding a merges m1(Up) m2(V1) m3(Dn): Up and Dn in one class *)
  check "rejected" true
    (Sg.quotient sg ~keep_signal:(fun s -> s <> a) ~keep_extra:(fun _ -> true)
    = None)

let test_quotient_keep_extra_filter () =
  let sg, _ = resolved_pulse () in
  match Sg.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> false) with
  | None -> Alcotest.fail "dropping extras cannot fail"
  | Some (q, _) -> check_int "extra dropped" 0 (Sg.n_extras q)

(* ---------------- Expansion ---------------- *)

let test_expand_pulse () =
  let sg, _ = resolved_pulse () in
  let ex = Sg_expand.expand sg in
  check_int "six states" 6 (Sg.n_states ex);
  check_int "three signals" 3 (Sg.n_signals ex);
  check_int "no extras left" 0 (Sg.n_extras ex);
  check "expanded satisfies CSC" true (Csc.csc_satisfied ex);
  (* the new signal's transitions appear exactly twice (n+ and n-) *)
  let n = Sg.find_signal ex "n" in
  let n_edges =
    Array.to_list (Sg.edges ex)
    |> List.filter (fun e ->
           match e.Sg.label with Sg.Ev (s, _) -> s = n | Sg.Eps -> false)
  in
  check_int "one rise one fall" 2 (List.length n_edges)

let test_expand_no_extras () =
  let sg = pulse_sg () in
  check "identity" true (Sg_expand.expand sg == sg);
  check "expand_one raises" true
    (try
       ignore (Sg_expand.expand_one sg);
       false
     with Invalid_argument _ -> true)

let test_expand_concurrent () =
  (* an extra that is Up across every state of a diamond: expansion must
     split each state and duplicate every edge into the commuting pair
     (Figure 3's Up->Up case, semi-modularity) *)
  let open Stg_builder in
  let stg =
    compile ~name:"dia" ~inputs:[ "x"; "y" ] ~outputs:[]
      (par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ])
  in
  let sg = Sg.of_stg stg in
  let values = Array.make (Sg.n_states sg) Fourval.Up in
  let sg = Sg.add_extra sg ~name:"n" ~values in
  let ex = Sg_expand.expand sg in
  check_int "doubled states" (2 * Sg.n_states sg) (Sg.n_states ex);
  (* each original edge appears twice (A- and B-halves) plus one n+ per
     original state *)
  check_int "edge count"
    ((2 * Sg.n_edges sg) + Sg.n_states sg)
    (Sg.n_edges ex)

let test_expand_constant_extra () =
  (* zero-conflict edge case: an extra that never switches expands to a
     new signal with no transitions — the graph shape is untouched *)
  let open Stg_builder in
  let stg =
    compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "r"; minus "a" ])
  in
  let sg = Sg.of_stg stg in
  let sg =
    Sg.add_extra sg ~name:"n" ~values:(Array.make (Sg.n_states sg) Fourval.V0)
  in
  let ex = Sg_expand.expand sg in
  check_int "states unchanged" (Sg.n_states sg) (Sg.n_states ex);
  check_int "edges unchanged" (Sg.n_edges sg) (Sg.n_edges ex);
  check_int "signal added" (Sg.n_signals sg + 1) (Sg.n_signals ex);
  check "still clean" true (Csc.csc_satisfied ex)

let test_expand_serializes_half_edges () =
  (* single-output edge case, (Up,V1) crossing: the a- exit of the Up
     state is only reachable from the bit-1 half, so expansion
     serializes n+ before it — the 0-half's sole successor is n+ *)
  let sg, _ = resolved_pulse () in
  let ex = Sg_expand.expand sg in
  check "semi-modular" true (Persistency.is_semi_modular ex);
  let n = Sg.find_signal ex "n" in
  let n_rise_srcs =
    Array.to_list (Sg.edges ex)
    |> List.filter_map (fun e ->
           match e.Sg.label with
           | Sg.Ev (s, Sg.R) when s = n -> Some e.Sg.src
           | _ -> None)
  in
  check_int "single rise" 1 (List.length n_rise_srcs);
  check_int "rise is serialized" 1
    (List.length (Sg.succ ex (List.hd n_rise_srcs)))

(* ---------------- Implementability without expansion ----------------

   [Sg_expand]'s product analysis against the materialized oracle: expand,
   then run [Csc] and [Persistency] on the result. *)

let oracle sg =
  let e = Sg_expand.expand sg in
  ( Csc.csc_satisfied e,
    Persistency.is_semi_modular e,
    List.length (Persistency.violations e) )

let product sg =
  ( Sg_expand.csc_satisfied sg,
    Sg_expand.is_semi_modular sg,
    Sg_expand.violation_count sg )

let check_agrees what sg =
  let csc, sm, n = oracle sg and csc', sm', n' = product sg in
  check (what ^ ": csc") csc csc';
  check (what ^ ": semi-modular") sm sm';
  check_int (what ^ ": violations") n n';
  check (what ^ ": implementable") (csc && sm) (Sg_expand.implementable sg)

(* a hand-built graph over visible signals a (bit 0) and b (bit 1), both
   outputs; state codes are listed as (a, b) pairs *)
let hand_sg codes edges =
  let signals =
    [|
      { Sg.sname = "a"; non_input = true };
      { Sg.sname = "b"; non_input = true };
    |]
  in
  let ev = function
    | "a+" -> Sg.Ev (0, Sg.R) | "a-" -> Sg.Ev (0, Sg.F)
    | "b+" -> Sg.Ev (1, Sg.R) | _ -> Sg.Ev (1, Sg.F)
  in
  Sg.make ~name:"hand" ~signals
    ~codes:(Array.of_list (List.map (fun (a, b) -> a + (2 * b)) codes))
    ~edges:(List.map (fun (src, l, dst) -> { Sg.src; label = ev l; dst }) edges)
    ~initial:0

(* a+ || b+, then a- ; b-: states 2 and 4 share code (0, 1) *)
let diamond () =
  hand_sg
    [ (0, 0); (1, 0); (0, 1); (1, 1); (0, 1) ]
    [ (0, "a+", 1); (0, "b+", 2); (1, "b+", 3); (2, "a+", 3); (3, "a-", 4);
      (4, "b-", 0) ]

let test_product_no_extras () =
  check_agrees "pulse" (pulse_sg ());
  (* a+ and b+ withdraw each other: two violations without any extra *)
  let sg =
    hand_sg [ (0, 0); (1, 0); (0, 1) ] [ (0, "a+", 1); (0, "b+", 2) ]
  in
  check_agrees "choice" sg;
  check_int "mutual withdrawal" 2 (Sg_expand.violation_count sg)

let test_product_up_up_diamond () =
  (* Up on every state: each edge is Up -> Up and survives in both halves *)
  let sg = diamond () in
  let sg = Sg.add_extra sg ~name:"n" ~values:(Array.make 5 Fourval.Up) in
  check_agrees "up-up diamond" sg;
  check "semi-modular" true (Sg_expand.is_semi_modular sg)

let test_product_diamond_closing_edges () =
  (* n rises across the diamond's closing edges: in half A both b+ at 1
     and a+ at 2 wait for n+, so firing either event of state 0 withdraws
     the other — the hazard region minimization must not introduce *)
  let sg = diamond () in
  let values = Fourval.[| V0; Up; Up; V1; Dn |] in
  let sg = Sg.add_extra sg ~name:"n" ~values in
  check_agrees "closing edges" sg;
  check_int "two withdrawals" 2 (Sg_expand.violation_count sg);
  check "not implementable" false (Sg_expand.implementable sg)

let test_product_up_dn_pair () =
  (* states 0 and 2 share code (0, 0) and both fire a+ only; n is Up at
     0 and Dn at 2, which tells them apart before expansion.  Expanded,
     0's half A (n = 0, n+ pending) and 2's half B (n- fired, n = 0)
     share a code and differ only in exciting n+ *)
  let sg =
    hand_sg [ (0, 0); (1, 0); (0, 0); (1, 0) ] [ (0, "a+", 1); (2, "a+", 3) ]
  in
  let sg = Sg.add_extra sg ~name:"n" ~values:Fourval.[| Up; Up; Dn; Dn |] in
  check "distinct full codes" true (Csc.csc_satisfied sg);
  check_agrees "up/dn pair" sg;
  check "collide once expanded" false (Sg_expand.csc_satisfied sg)

let test_product_same_label_edges () =
  (* states 0 and 3 each have two b+ edges.  In half A of n, 3 -> 4
     waits for n+ but 3 -> 5 does not, so firing a+ at 0 keeps b+
     enabled.  In the first graph firing b+ to 1 withdraws a+ (1 -> 4
     waits for n+); in the second, 1 -> 6 does not wait and nothing is
     withdrawn.  Both edge orders, so that neither same-label edge is
     the only one looked at. *)
  let codes = [ (0, 0); (0, 1); (0, 1); (1, 0); (1, 1); (1, 1); (1, 1) ] in
  let common =
    [ (0, "b+", 1); (0, "b+", 2); (0, "a+", 3); (3, "b+", 4); (3, "b+", 5);
      (2, "a+", 5) ]
  in
  List.iter
    (fun (what, edges, values, expected) ->
      List.iter
        (fun edges ->
          let sg = Sg.add_extra (hand_sg codes edges) ~name:"n" ~values in
          check_agrees what sg;
          check_int (what ^ ": count") expected (Sg_expand.violation_count sg))
        [ edges; List.rev edges ])
    [
      ("withdrawn", (1, "a+", 4) :: common,
       Fourval.[| V0; Up; V0; Up; V1; Up; V0 |], 1);
      ("kept", (1, "a+", 6) :: common,
       Fourval.[| V0; V0; V0; Up; V1; Up; Up |], 0);
    ]

(* The graphs: every data/ net, random STGs and the benchmark's [expand]
   nets, each with the labeling synthesis settles on (computed on first
   use) — random flips of that labeling are the near misses the
   minimization loop actually asks about. *)
type pooled = { sg : Sg.t Lazy.t; settled : Sg.t option Lazy.t }

let labeling_pool =
  lazy
    (let data_dir = Filename.concat ".." "data" in
     let data =
       Sys.readdir data_dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".g")
       |> List.sort compare
       |> List.map (fun f -> Gformat.parse_file (Filename.concat data_dir f))
     in
     let rand = Qseed.state () in
     let random = List.init 12 (fun _ -> Bench_gen.random ~rand) in
     let expand_nets =
       [
         Bench_gen.pipeline ~stages:10; Bench_gen.pipeline ~stages:11;
         Bench_gen.pipeline ~stages:12; Bench_gen.mixed ~stages:4 ~branches:2;
         Bench_gen.concurrent_pulsers ~branches:4;
       ]
     in
     Array.of_list
       (List.map
          (fun stg ->
            {
              sg = lazy (Sg.of_stg stg);
              settled =
                lazy
                  (match Mpart.synthesize stg with
                  | r when Sg.n_extras r.Mpart.final > 0 -> Some r.Mpart.final
                  | _ | (exception Mpart.Synthesis_failed _) -> None);
            })
          (data @ random @ expand_nets)))

(* states of [expand sg], without building it *)
let expansion_size sg =
  let n = ref 0 in
  for m = 0 to Sg.n_states sg - 1 do
    n :=
      !n
      + Array.fold_left
          (fun acc (x : Sg.extra) ->
            if Fourval.excited x.Sg.values.(m) then 2 * acc else acc)
          1 (Sg.extras sg)
  done;
  !n

let draw_labeling rand =
  let pool = Lazy.force labeling_pool in
  let p = pool.(Random.State.int rand (Array.length pool)) in
  match Lazy.force p.settled with
  | Some final when Random.State.bool rand ->
    (* perturb a few of the settled extras *)
    let n = Sg.n_states final in
    let sg = ref final in
    for _ = 1 to 1 + Random.State.int rand 3 do
      let index = Random.State.int rand (Sg.n_extras final) in
      let values = Array.copy (Sg.extras !sg).(index).Sg.values in
      Labeling.flip rand final values ~times:(Random.State.int rand ((n / 4) + 2));
      sg := Sg.set_extra_values !sg ~index ~values
    done;
    !sg
  | _ ->
    let sg = Lazy.force p.sg in
    (* keep the materialized oracle's expansion small *)
    let max_extras = if Sg.n_states sg > 300 then 2 else 4 in
    List.fold_left
      (fun acc i ->
        Sg.add_extra acc ~name:(Printf.sprintf "x%d" i)
          ~values:(Labeling.random rand sg))
      sg
      (List.init (1 + Random.State.int rand max_extras) Fun.id)

let prop_product_matches_expansion =
  QCheck.Test.make ~name:"product analysis matches the materialized expansion"
    ~count:300 QCheck.(make ~print:string_of_int Gen.int) (fun draw ->
      let sg = draw_labeling (Random.State.make [| draw |]) in
      QCheck.assume (expansion_size sg <= 50_000);
      let csc, sm, n = oracle sg and csc', sm', n' = product sg in
      if csc <> csc' || sm <> sm' || n <> n' then
        QCheck.Test.fail_reportf
          "%s with %d extras: expansion csc=%b sm=%b violations=%d, product \
           csc=%b sm=%b violations=%d"
          (Sg.name sg) (Sg.n_extras sg) csc sm n csc' sm' n'
      else true)

(* ---------------- Quotient composition ---------------- *)

(* Hiding H and then S (named in the H-quotient's numbering) is hiding
   H ∪ S at once, and dropping extras composes the same way: whenever the
   first quotient succeeds, the second fails exactly when the one-shot
   quotient does, and otherwise gives the same graph under the composed
   cover.  Each signal and extra is drawn into the first step, the second
   or neither. *)
let prop_quotient_composes =
  QCheck.Test.make ~name:"quotient by H then S is quotient by H ∪ S"
    ~count:300 QCheck.(make ~print:string_of_int Gen.int) (fun draw ->
      let rand = Random.State.make [| draw |] in
      let sg =
        if Random.State.bool rand then draw_labeling rand
        else
          let pool = Lazy.force labeling_pool in
          Lazy.force pool.(Random.State.int rand (Array.length pool)).sg
      in
      let step = Array.init (Sg.n_signals sg) (fun _ -> Random.State.int rand 3) in
      let xstep = Hashtbl.create 4 in
      Array.iter
        (fun (x : Sg.extra) -> Hashtbl.replace xstep x.Sg.xname (Random.State.int rand 3))
        (Sg.extras sg);
      let hide k s = step.(s) = k and drop k x = Hashtbl.find xstep x = k in
      match
        Sg.quotient sg ~keep_signal:(fun s -> not (hide 1 s))
          ~keep_extra:(fun x -> not (drop 1 x))
      with
      | None -> true
      | Some (g1, c1) -> (
        let once =
          Sg.quotient sg ~keep_signal:(fun s -> step.(s) = 0)
            ~keep_extra:(fun x -> Hashtbl.find xstep x = 0)
        in
        let twice =
          Sg.quotient g1
            ~keep_signal:(fun s -> not (hide 2 (Sg.find_signal sg (Sg.signal_name g1 s))))
            ~keep_extra:(fun x -> not (drop 2 x))
        in
        match (once, twice) with
        | None, None -> true
        | Some (g, c), Some (g2, c2) ->
          Sg.digest g = Sg.digest g2 && c = Array.map (fun m -> c2.(m)) c1
          || QCheck.Test.fail_reportf "%s: composed quotient differs" (Sg.name sg)
        | Some _, None | None, Some _ ->
          QCheck.Test.fail_reportf "%s: one-shot %s, composed %s" (Sg.name sg)
            (if Option.is_none once then "fails" else "succeeds")
            (if Option.is_none twice then "fails" else "succeeds")))

(* ---------------- Region minimization ---------------- *)

let test_region_minimize_preserves_csc () =
  let sg, (m0, m1, m2, m3) = resolved_pulse () in
  ignore (m0, m1, m2, m3);
  check "resolved before" true (Csc.csc_satisfied sg);
  let sg' = Region_minimize.minimize sg in
  check "resolved after" true (Csc.csc_satisfied sg');
  (* minimization never grows the excitation region *)
  let excited g =
    Array.fold_left
      (fun acc (x : Sg.extra) ->
        acc
        + Array.fold_left
            (fun a v -> if Fourval.excited v then a + 1 else a)
            0 x.Sg.values)
      0 (Sg.extras g)
  in
  check "region not larger" true (excited sg' <= excited sg)

let test_region_minimize_shrinks_expansion () =
  (* propagation-style assignment: a whole class valued Up *)
  let open Stg_builder in
  let stg =
    compile ~name:"big" ~inputs:[ "r" ] ~outputs:[ "x"; "y" ]
      (seq
         [
           plus "r";
           par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ];
           minus "r";
         ])
  in
  let sg = Sg.of_stg stg in
  (* assign Up to every state with r=1, V0 elsewhere — legal, wide *)
  let r = Sg.find_signal sg "r" in
  let wide =
    Array.init (Sg.n_states sg) (fun m ->
        if Sg.bit sg m r then Fourval.Up else Fourval.V0)
  in
  (* Up -> V0 across r- edge is legal (Dn needed for rise-fall cycle, so
     use a proper cycle: V0 before r+, Up while r, then it must fall...
     a signal that rises and never falls is inconsistent around the loop
     only if it reaches stable 1; staying Up->V0 is the legal "aborted
     rise" pattern used by lazy transitions; edge (Up,V0) is illegal
     though, so this assignment must be rejected: *)
  (try
     ignore (Sg.add_extra sg ~name:"n" ~values:wide);
     Alcotest.fail "expected rejection"
   with Sg.Inconsistent _ -> ());
  check "rejected wide illegal region" true true

let () =
  Alcotest.run "stategraph"
    [
      ( "fourval",
        [
          Alcotest.test_case "binary" `Quick test_fourval_binary;
          Alcotest.test_case "edge pairs" `Quick test_fourval_edges;
          Alcotest.test_case "merge" `Quick test_fourval_merge;
          Alcotest.test_case "bits" `Quick test_fourval_bits;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "codes" `Quick test_of_stg_codes;
          Alcotest.test_case "inconsistent" `Quick test_of_stg_inconsistent;
          Alcotest.test_case "dummy contraction" `Quick
            test_of_stg_dummy_contraction;
          Alcotest.test_case "toggles" `Quick test_of_stg_toggle_resolution;
          Alcotest.test_case "implied value" `Quick test_implied_value;
        ] );
      ( "csc",
        [
          Alcotest.test_case "conflict" `Quick test_csc_conflict;
          Alcotest.test_case "clean" `Quick test_csc_clean;
          Alcotest.test_case "output conflicts" `Quick test_output_conflicts;
        ] );
      ( "extras",
        [
          Alcotest.test_case "add" `Quick test_add_extra;
          Alcotest.test_case "invalid" `Quick test_add_extra_invalid;
          Alcotest.test_case "set values" `Quick test_set_extra_values;
        ] );
      ( "quotient",
        [
          Alcotest.test_case "hide output" `Quick test_quotient_hide_all_outputs;
          Alcotest.test_case "extra merge" `Quick test_quotient_preserves_extra;
          Alcotest.test_case "up/dn rejection" `Quick
            test_quotient_rejects_updn_merge;
          Alcotest.test_case "drop extra" `Quick test_quotient_keep_extra_filter;
          Qseed.to_alcotest prop_quotient_composes;
        ] );
      ( "expansion",
        [
          Alcotest.test_case "pulse" `Quick test_expand_pulse;
          Alcotest.test_case "no extras" `Quick test_expand_no_extras;
          Alcotest.test_case "concurrent" `Quick test_expand_concurrent;
          Alcotest.test_case "constant extra" `Quick test_expand_constant_extra;
          Alcotest.test_case "serialized crossing" `Quick
            test_expand_serializes_half_edges;
        ] );
      ( "implementability",
        [
          Alcotest.test_case "no extras" `Quick test_product_no_extras;
          Alcotest.test_case "up-up diamond" `Quick test_product_up_up_diamond;
          Alcotest.test_case "diamond closing edges" `Quick
            test_product_diamond_closing_edges;
          Alcotest.test_case "up/dn pair" `Quick test_product_up_dn_pair;
          Alcotest.test_case "same-label edges" `Quick
            test_product_same_label_edges;
          Qseed.to_alcotest prop_product_matches_expansion;
        ] );
      ( "region minimization",
        [
          Alcotest.test_case "preserves csc" `Quick
            test_region_minimize_preserves_csc;
          Alcotest.test_case "illegal wide region" `Quick
            test_region_minimize_shrinks_expansion;
        ] );
    ]
