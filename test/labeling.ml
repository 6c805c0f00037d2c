(* Random legal state-signal labelings for the property and differential
   tests: extras whose every edge passes {!Fourval.edge_ok}, so
   {!Sg.add_extra} accepts them. *)

let excitation_copy sg s =
  Array.init (Sg.n_states sg) (fun m ->
      let excited dir = Sg.excited sg m ~signal:s ~dir in
      match Sg.bit sg m s with
      | false -> if excited Sg.R then Fourval.Up else Fourval.V0
      | true -> if excited Sg.F then Fourval.Dn else Fourval.V1)

let legal sg values =
  Array.for_all
    (fun e -> Fourval.edge_ok values.(e.Sg.src) values.(e.Sg.dst))
    (Sg.edges sg)

let flip rand sg values ~times =
  for _ = 1 to times do
    let m = Random.State.int rand (Sg.n_states sg) in
    let v = Fourval.([| V0; V1; Up; Dn |]).(Random.State.int rand 4) in
    let at s = if s = m then v else values.(s) in
    if List.for_all (fun e -> Fourval.edge_ok (at e.Sg.src) v) (Sg.pred sg m)
       && List.for_all (fun e -> Fourval.edge_ok v (at e.Sg.dst)) (Sg.succ sg m)
    then values.(m) <- v
  done

(* A copy of some signal's excitation (when that copy is legal), then
   random flips that keep every edge legal. *)
let random rand sg =
  let n = Sg.n_states sg in
  let values =
    let v = excitation_copy sg (Random.State.int rand (Sg.n_signals sg)) in
    if legal sg v then v else Array.make n Fourval.V0
  in
  flip rand sg values ~times:(Random.State.int rand ((2 * n) + 1));
  values
