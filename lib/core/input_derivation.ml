type t = {
  output : int;
  input_set : int list;
  immediate : int list;
  kept_extras : string list;
  module_sg : Sg.t;
  cover : int array;
}

let triggers sg ~output =
  (* s triggers o when firing s enables a transition of o: o is excited
     after the s edge but was not before.  Concurrent signals whose firing
     merely interleaves with o's excitation do not qualify — this is the
     state-graph image of a direct causal STG arc. *)
  let excited = Array.make (Sg.n_states sg) false in
  Array.iter
    (fun e ->
      match e.Sg.label with
      | Sg.Ev (s, _) when s = output -> excited.(e.Sg.src) <- true
      | Sg.Ev _ | Sg.Eps -> ())
    (Sg.edges sg);
  let is_trigger = Array.make (Sg.n_signals sg) false in
  Array.iter
    (fun e ->
      match e.Sg.label with
      | Sg.Ev (s, _) when s <> output ->
        if excited.(e.Sg.dst) && not excited.(e.Sg.src) then
          is_trigger.(s) <- true
      | Sg.Ev _ | Sg.Eps -> ())
    (Sg.edges sg);
  List.filter (fun s -> is_trigger.(s)) (List.init (Sg.n_signals sg) Fun.id)

(* Every candidate is quotiented from the accepted module graph, not from
   the complete one: hiding H and then S merges exactly the states hiding
   H ∪ S merges, numbered and edged identically (see {!Sg.quotient}), so
   the accepted graph only ever shrinks and each candidate costs the
   module's size, not the complete graph's. *)
let determine sg ~output =
  let immediate = triggers sg ~output in
  let out_name = Sg.signal_name sg output in
  let conflicts g =
    Csc.n_output_conflict_classes g ~output:(Sg.find_signal g out_name)
  in
  let current = ref sg in
  let cover = ref (Array.init (Sg.n_states sg) Fun.id) in
  (* Implied values of [output] met in each accepted class: 1 false,
     2 true, 3 mixed.  A class mixing both would make the output's logic
     ill-defined over the module, and would hide a conflict this module
     is responsible for, so a hide producing one is rejected. *)
  let implied =
    ref
      (Array.init (Sg.n_states sg) (fun m ->
           if Sg.implied_value sg m output then 2 else 1))
  in
  let merged_implied (g', cover') =
    let flags = Array.make (Sg.n_states g') 0 in
    Array.iteri (fun c f -> flags.(cover'.(c)) <- flags.(cover'.(c)) lor f) !implied;
    flags
  in
  let n_csc = ref (conflicts sg) in
  let accept (g', cover') ~conflicts flags =
    n_csc := conflicts;
    implied := flags;
    cover := Array.map (fun c -> cover'.(c)) !cover;
    current := g'
  in
  (* State signals first: an inserted signal that is irrelevant to this
     output would otherwise block the ε-merging of the region it toggles
     in (its rise and fall would land in one class), inflating the
     module.  Dropping is safe whenever this output's conflicts do not
     increase. *)
  let kept_extras = ref [] in
  Array.iter
    (fun (x : Sg.extra) ->
      match
        Sg.quotient !current
          ~keep_signal:(fun _ -> true)
          ~keep_extra:(fun name -> name <> x.Sg.xname)
      with
      | None -> kept_extras := x.Sg.xname :: !kept_extras
      | Some ((g', _) as candidate) ->
        let n' = conflicts g' in
        if n' > !n_csc then kept_extras := x.Sg.xname :: !kept_extras
        else accept candidate ~conflicts:n' (merged_implied candidate))
    (Sg.extras sg);
  let input_set = ref [] in
  for s = 0 to Sg.n_signals sg - 1 do
    if s <> output then
      if List.mem s immediate then input_set := s :: !input_set
      else begin
        let reject () = input_set := s :: !input_set in
        let local = Sg.find_signal !current (Sg.signal_name sg s) in
        match
          Sg.quotient !current
            ~keep_signal:(fun s' -> s' <> local)
            ~keep_extra:(fun _ -> true)
        with
        | None -> reject () (* a state signal would lose its representation *)
        | Some ((g', _) as candidate) ->
          let flags = merged_implied candidate in
          if Array.mem 3 flags then reject ()
          else begin
            let n' = conflicts g' in
            if n' <= !n_csc then accept candidate ~conflicts:n' flags
            else reject ()
          end
      end
  done;
  let module_sg, cover =
    if !current != sg then (!current, !cover)
    else
      (* nothing hidden or dropped: the module is a copy of [sg] *)
      Option.get
        (Sg.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> true))
  in
  {
    output;
    input_set = List.sort Int.compare !input_set;
    immediate;
    kept_extras = List.rev !kept_extras;
    module_sg;
    cover;
  }

let pp sg ppf t =
  let out_name = Sg.signal_name sg t.output in
  Format.fprintf ppf "module for %s: inputs {%s}%s, %d states, %d conflicts"
    out_name
    (String.concat ", " (List.map (Sg.signal_name sg) t.input_set))
    (match t.kept_extras with
    | [] -> ""
    | xs -> Printf.sprintf " + state signals {%s}" (String.concat ", " xs))
    (Sg.n_states t.module_sg)
    (Csc.n_output_conflicts t.module_sg
       ~output:(Sg.find_signal t.module_sg out_name))
