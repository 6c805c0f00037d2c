let rule_u0 = "U0-prefix"
let rule_u1 = "U1-safeness"
let rule_u2 = "U2-autoconcurrency"
let rule_u3 = "U3-coding"
let rule_u4 = "U4-statebound"

type summary = {
  s_events : int;
  s_conditions : int;
  s_cutoffs : int;
  s_complete : bool;
  s_unsafe : (int * int list) option;
  s_autoconc : (int * int) list;
  s_markings : int option;
  s_edges : int option;
  s_sg_states : int option;
  s_usc : bool option;
  s_csc : bool option;
  s_conflicts : int option;
  s_signals : string list;
  s_coexcited : ((string * bool) * (string * bool)) list option;
  s_cert : string;
}

(* ------------------------------------------------------------------ *)
(* U3/U4: the explicit state graph                                     *)
(* ------------------------------------------------------------------ *)

(* U3/U4 abstain past this many reachable markings. *)
let max_states = 262144

(* Every signal-edge pair excited together at some state of [sg],
   canonically ordered.  Edges are numbered [2 * signal + rising] while
   the states are swept, and named once at the end. *)
let coexcited stg sg =
  let ne = 2 * Sg.n_signals sg in
  let seen = Array.make_matrix ne ne false in
  let id (s, d) = (2 * s) + if d = Sg.R then 1 else 0 in
  for m = 0 to Sg.n_states sg - 1 do
    let rec pairs = function
      | [] -> ()
      | a :: rest ->
        List.iter (fun b -> seen.(a).(b) <- true) rest;
        pairs rest
    in
    pairs (List.map id (Sg.excited_events sg m))
  done;
  let edge i = (Stg.signal_name stg (i / 2), i mod 2 = 1) in
  let acc = ref [] in
  for i = 0 to ne - 1 do
    for j = 0 to ne - 1 do
      if seen.(i).(j) then begin
        let a = edge i and b = edge j in
        acc := (if a <= b then (a, b) else (b, a)) :: !acc
      end
    done
  done;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?(jobs = 1) ?(max_events = 2048) stg =
  let net = Stg.net stg in
  let u = Unfold.build ~jobs ~max_events net in
  let complete = Unfold.complete u in
  let s_unsafe =
    (* a violating co-set is a genuine refutation even on a truncated
       prefix; only the safeness *proof* needs completeness *)
    Unfold.unsafe_witness u
  in
  let s_autoconc =
    if not complete then []
    else begin
      let acc = ref [] in
      for s = 0 to Stg.n_signals stg - 1 do
        let rec pairs = function
          | [] -> ()
          | t1 :: rest ->
            List.iter
              (fun t2 ->
                if Unfold.step_coenabled u t1 t2 then
                  acc := (min t1 t2, max t1 t2) :: !acc)
              rest;
            pairs rest
        in
        pairs (Stg.transitions_of stg s)
      done;
      List.sort_uniq compare !acc
    end
  in
  (* U3/U4 read the explicit graph, and only behind a complete prefix:
     a net whose prefix is truncated may be unbounded *)
  let g =
    if not complete then None
    else
      try Some (Reach.explore ~max_states net)
      with Reach.Too_many_states _ -> None
  in
  let sg =
    Option.bind g (fun g ->
        try Some (Sg.of_reach stg g) with Sg.Inconsistent _ -> None)
  in
  let conflicts = Option.map Csc.n_conflicts sg in
  {
    s_events = Unfold.n_events u;
    s_conditions = Unfold.n_conditions u;
    s_cutoffs = Unfold.n_cutoffs u;
    s_complete = complete;
    s_unsafe;
    s_autoconc;
    s_markings = Option.map Reach.n_states g;
    s_edges = Option.map Reach.n_edges g;
    s_sg_states = Option.map Sg.n_states sg;
    s_usc = Option.map Csc.usc_satisfied sg;
    s_csc = Option.map (fun k -> k = 0) conflicts;
    s_conflicts = conflicts;
    s_signals = List.init (Stg.n_signals stg) (Stg.signal_name stg);
    s_coexcited = Option.map (coexcited stg) sg;
    s_cert = Unfold.cert_json u;
  }

(* ------------------------------------------------------------------ *)
(* Oracles for other analyses                                          *)
(* ------------------------------------------------------------------ *)

let exact_mutex summary t1 t2 =
  if not summary.s_complete then None
  else Some (List.mem (min t1 t2, max t1 t2) summary.s_autoconc)

let coexcited_pred summary =
  match summary.s_coexcited with
  | None -> fun _ _ -> true
  | Some pairs ->
    let tbl = Hashtbl.create (List.length pairs * 2) in
    List.iter (fun p -> Hashtbl.replace tbl p ()) pairs;
    let known = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace known s ()) summary.s_signals;
    fun (n1, d1) (n2, d2) ->
      if not (Hashtbl.mem known n1 && Hashtbl.mem known n2) then true
      else begin
        let a = (n1, d1 = Sg.R) and b = (n2, d2 = Sg.R) in
        let key = if a <= b then (a, b) else (b, a) in
        Hashtbl.mem tbl key
      end

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let diagnostics ~loc stg summary =
  let net = Stg.net stg in
  let target = Diagnostic.Net (Stg.name stg) in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if not summary.s_complete then
    emit
      (Diagnostic.v ~rule:rule_u0 ~severity:Info ~loc ~subject:target
         ~hint:"raise the prefix event cap to restore exact verdicts"
         (Printf.sprintf
            "finite-prefix construction stopped at %d events before \
             completion"
            summary.s_events)
         "rules U1-U4 abstained: a truncated prefix under-approximates \
          the behaviour, so neither proofs nor exhaustive refutations \
          are available");
  (match summary.s_unsafe with
  | Some (p, fire) ->
    emit
      (Diagnostic.v ~rule:rule_u1 ~severity:Error ~loc
         ~subject:(Diagnostic.Place (Petri.place_name net p))
         ~hint:"the net is not 1-safe; add ordering so the place cannot \
                be marked twice"
         (Printf.sprintf "accumulates two tokens after firing [%s]"
            (String.concat "; "
               (List.map (Petri.transition_name net) fire)))
         "two concurrent conditions of the unfolding share this place: \
          the printed firing sequence is replayable from the initial \
          marking and refutes 1-safeness exactly (rule A2 can only \
          abstain here)")
  | None ->
    if summary.s_complete then
      emit
        (Diagnostic.v ~rule:rule_u1 ~severity:Info ~loc ~subject:target
           (Printf.sprintf
              "proved 1-safe by a complete finite prefix (%d events, %d \
               cutoffs)"
              summary.s_events summary.s_cutoffs)
           "no co-set of the complete prefix doubles a place, which is \
            an exact proof - stronger than A2's structural \
            over-approximation"));
  List.iter
    (fun (t1, t2) ->
      emit
        (Diagnostic.v ~rule:rule_u2 ~severity:Error ~loc
           ~subject:(Diagnostic.Trans (Petri.transition_name net t1))
           ~hint:"order the two transitions, or route both through a \
                  common 1-safe choice place"
           (Printf.sprintf "fires concurrently with %s (exact)"
              (Petri.transition_name net t2))
           "the prefix contains a co-set covering both presets, so the \
            two transitions of this signal really can fire as a step \
            and the wire behaviour is undefined - this is A5's concern, \
            upgraded from a may-warning to an exact refutation"))
    summary.s_autoconc;
  if summary.s_complete && summary.s_autoconc = [] then
    emit
      (Diagnostic.v ~rule:rule_u2 ~severity:Info ~loc ~subject:target
         "no signal is autoconcurrent (exact, from the complete prefix)"
         "every same-signal transition pair was checked for \
          step-coenabledness against the prefix co-sets; structural A5 \
          warnings on this net, if any, are false alarms and were \
          suppressed");
  (match (summary.s_csc, summary.s_conflicts, summary.s_usc) with
  | Some true, _, _ ->
    emit
      (Diagnostic.v ~rule:rule_u3 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "CSC certified: %s state codes, no conflicts"
            (match summary.s_usc with
            | Some true -> "unique"
            | _ -> "non-unique but complete")
         )
         "no two reachable states share a code while enabling different \
          non-input signals, so SAT-based state-signal insertion is \
          unnecessary")
  | Some false, Some k, _ ->
    emit
      (Diagnostic.v ~rule:rule_u3 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "%d CSC conflict pair(s) detected (exact)" k)
         "state coding is incomplete and synthesis will insert state \
          signals; informational because shipped specifications \
          legitimately carry conflicts - resolving them is what the \
          flow is for")
  | _ -> ());
  (match (summary.s_markings, summary.s_sg_states) with
  | Some m, Some c ->
    emit
      (Diagnostic.v ~rule:rule_u4 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "state graph bound: %d markings, %d states after \
             eps-contraction (prefix: %d events)"
            m c summary.s_events)
         "exact state-space size from one explicit exploration, run \
          once the complete prefix proves the net bounded")
  | _ -> ());
  List.rev !diags
