(* Self-tests of the benchmark: its order statistics, the traced
   replay's identity with [Mpart.synthesize], and failure accounting for
   bad input text. *)

open Mpbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Expected values are Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name (e1, e2, e3) xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") e1 q1;
    Alcotest.check close (name ^ " q2") e2 q2;
    Alcotest.check close (name ^ " q3") e3 q3
  in
  check "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float (i + 1)));
  check "two" (0.75, 1.5, 2.25) [ 2.0; 1.0 ];
  check "three" (1.0, 3.0, 5.0) [ 5.0; 1.0; 3.0 ];
  check "one" (4.0, 4.0, 4.0) [ 4.0 ]

let test_gmean () =
  Alcotest.check close "1,4" 2.0 (Stats.gmean [ 1.0; 4.0 ]);
  Alcotest.check close "2,8,4" 4.0 (Stats.gmean [ 2.0; 8.0; 4.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.gmean: non-positive sample")
    (fun () -> ignore (Stats.gmean [ 1.0; 0.0 ]))

let test_shuffle () =
  let nets =
    List.init 8 (fun i -> { Workload.name = string_of_int i; text = "" })
  in
  let order ~seed ~pass =
    List.map (fun (n : Workload.net) -> n.Workload.name) (Workload.shuffled ~seed ~pass nets)
  in
  Alcotest.(check (list string)) "same seed, same order" (order ~seed:3 ~pass:1)
    (order ~seed:3 ~pass:1);
  Alcotest.(check (list string)) "a permutation"
    (List.map (fun (n : Workload.net) -> n.Workload.name) nets)
    (List.sort compare (order ~seed:3 ~pass:1))

(* The replay must rebuild exactly what [Mpart.synthesize] builds, and a
   sequential (jobs = 1) net span must be fully accounted for by its
   descendants' self times plus its own remainder. *)
let replay_matches ~jobs (net : Workload.net) () =
  Span.reset ();
  Span.set_context ~net:net.Workload.name ~pass:0;
  let r =
    match Op.run ~jobs net with
    | Ok r -> r
    | Error msg -> Alcotest.failf "Mpart.synthesize failed: %s" msg
  in
  let rr = Replay.run ~jobs net in
  Alcotest.(check string) "expanded digest" (Sg.digest r.Mpart.expanded)
    (Sg.digest rr.Replay.expanded);
  Alcotest.(check string) "covers" (Op.covers_text r.Mpart.functions)
    (Op.covers_text rr.Replay.functions);
  let selfs = Span.self_times (Span.spans ()) in
  List.iter
    (fun ((s : Span.t), _) ->
      if s.Span.parent >= 0 then
        Alcotest.(check bool)
          (s.Span.name ^ " has a recorded parent")
          true
          (List.exists (fun ((p : Span.t), _) -> p.Span.id = s.Span.parent) selfs))
    selfs;
  if jobs = 1 then begin
    let total = List.fold_left (fun acc (_, self) -> acc + self) 0 selfs in
    let net_span, _ = List.find (fun ((s : Span.t), _) -> s.Span.name = "net") selfs in
    Alcotest.(check int) "self times add up to the net span"
      (net_span.Span.stop_ns - net_span.Span.start_ns)
      total
  end

let atod () =
  List.find
    (fun (n : Workload.net) -> n.Workload.name = "atod")
    (Workload.data_nets "../../data")

let pipeline4 () = Workload.pipeline 4
let parrings3 () = Workload.parrings 3

(* Bad text is an [Error] from the stage named by [prefix], never an
   exception escaping the operation. *)
let failure_counted ~prefix text () =
  match Op.run ~jobs:1 { Workload.name = "bad"; text } with
  | Ok _ -> Alcotest.fail "bad text synthesized"
  | Error msg ->
    Alcotest.(check bool) (msg ^ " starts with " ^ prefix) true
      (String.starts_with ~prefix msg)

let malformed = ".model bad\n.inputs a\n.graph\na+ b+ ???\n"

(* a rises twice without falling: inconsistent *)
let inconsistent =
  ".model bad\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+\n.marking { <b+,a+> }\n.end\n"

let () =
  Alcotest.run "mpbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "gmean" `Quick test_gmean;
          Alcotest.test_case "shuffle" `Quick test_shuffle;
        ] );
      ( "replay",
        [
          Alcotest.test_case "atod" `Quick (fun () -> replay_matches ~jobs:1 (atod ()) ());
          Alcotest.test_case "pipeline -n 4" `Quick (fun () ->
              replay_matches ~jobs:1 (pipeline4 ()) ());
          Alcotest.test_case "parrings -n 3, jobs 2" `Quick (fun () ->
              replay_matches ~jobs:2 (parrings3 ()) ());
        ] );
      ( "failures",
        [
          Alcotest.test_case "malformed .g" `Quick (failure_counted ~prefix:"parse" malformed);
          Alcotest.test_case "inconsistent .g" `Quick (failure_counted ~prefix:"lint" inconsistent);
        ] );
    ]
