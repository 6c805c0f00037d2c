let rule = "A1-consistency"

let check ~loc stg ~tinvs ~fireable =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if Stg.n_signals stg = 0 then
    emit
      (Diagnostic.v ~rule ~severity:Error ~loc
         ~subject:(Diagnostic.Net (Stg.name stg))
         ~hint:"declare the interface with .inputs/.outputs and give the \
                signals transitions under .graph"
         "declares no signals"
         "an STG without signals specifies no behaviour: there is no \
          circuit to synthesize");
  for s = 0 to Stg.n_signals stg - 1 do
    let subject = Diagnostic.Sig (Stg.signal_name stg s) in
    let ts = Stg.transitions_of stg s in
    let by_dir d =
      List.filter
        (fun t ->
          match Stg.label stg t with
          | Stg.Event e -> e.Signal.dir = d
          | Stg.Dummy -> false)
        ts
    in
    let rises = by_dir Signal.Rise
    and falls = by_dir Signal.Fall
    and toggles = by_dir Signal.Toggle in
    if ts = [] then
      emit
        (Diagnostic.v ~rule ~severity:Warning ~loc ~subject
           ~hint:"remove the declaration or add the signal's transitions"
           "is declared but never transitions"
           "a signal without transitions is constant; synthesis would \
            implement it as a stuck wire")
    else if toggles <> [] then
      emit
        (Diagnostic.v ~rule ~severity:Info ~loc ~subject
           "uses toggle transitions; rise/fall balance not statically checked"
           "a toggle event's direction depends on the current value, so \
            structural counting cannot establish alternation")
    else begin
      let live = List.filter (fun t -> fireable.(t)) in
      let live_r = live rises <> [] and live_f = live falls <> [] in
      if live_r && not live_f then
        emit
          (Diagnostic.v ~rule ~severity:Error ~loc ~subject
             ~hint:"add the matching falling transition(s) to the cycle"
             "can rise but never fall"
             "after its first rising transition fires the signal is stuck \
              high: the specification is inconsistent");
      if live_f && not live_r then
        emit
          (Diagnostic.v ~rule ~severity:Error ~loc ~subject
             ~hint:"add the matching rising transition(s) to the cycle"
             "can fall but never rise"
             "after its first falling transition fires the signal is stuck \
              low: the specification is inconsistent");
      match tinvs with
      | None -> ()
      | Some invs ->
        let count inv ts' =
          List.fold_left (fun a t -> a + inv.Invariants.counts.(t)) 0 ts'
        in
        let offending =
          List.find_opt
            (fun inv -> count inv rises <> count inv falls)
            invs
        in
        (match offending with
        | None -> ()
        | Some inv ->
          emit
            (Diagnostic.v ~rule ~severity:Error ~loc ~subject
               ~hint:"balance the rising and falling occurrences along \
                      every cycle of the specification"
               (Printf.sprintf
                  "unbalanced on a structural cycle: %d rise(s) vs %d \
                   fall(s)"
                  (count inv rises) (count inv falls))
               "a T-invariant reproduces its starting marking, but firing \
                it would leave this signal at a different level — the \
                corresponding cyclic execution cannot be consistent"))
    end
  done;
  List.rev !diags
