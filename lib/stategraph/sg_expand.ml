let expand_one sg =
  let extras = Sg.extras sg in
  if Array.length extras = 0 then
    invalid_arg "Sg_expand.expand_one: no extras to expand";
  let x = extras.(0) in
  let rest = Array.sub extras 1 (Array.length extras - 1) in
  let n = Sg.n_states sg in
  let ns = Sg.n_signals sg in
  let new_sig = ns in
  (* Allocate new state ids: [fst_id.(m)] is the (first) copy of [m];
     excited states get a second copy [snd_id.(m)]. *)
  let fst_id = Array.make n 0 and snd_id = Array.make n (-1) in
  let count = ref 0 in
  for m = 0 to n - 1 do
    fst_id.(m) <- !count;
    incr count;
    if Fourval.excited x.Sg.values.(m) then begin
      snd_id.(m) <- !count;
      incr count
    end
  done;
  let n' = !count in
  let codes = Array.make n' 0 in
  let bit_of m half =
    (* value of the new signal in the given half of old state [m] *)
    match (x.Sg.values.(m), half) with
    | Fourval.V0, _ -> false
    | Fourval.V1, _ -> true
    | Fourval.Up, `A -> false
    | Fourval.Up, `B -> true
    | Fourval.Dn, `A -> true
    | Fourval.Dn, `B -> false
  in
  for m = 0 to n - 1 do
    let base = Sg.code sg m in
    codes.(fst_id.(m)) <- (if bit_of m `A then base lor (1 lsl new_sig) else base);
    if snd_id.(m) >= 0 then
      codes.(snd_id.(m)) <-
        (if bit_of m `B then base lor (1 lsl new_sig) else base)
  done;
  let edges = ref [] in
  let add src label dst = edges := { Sg.src; label; dst } :: !edges in
  (* The inserted transitions themselves. *)
  for m = 0 to n - 1 do
    match x.Sg.values.(m) with
    | Fourval.Up -> add fst_id.(m) (Sg.Ev (new_sig, Sg.R)) snd_id.(m)
    | Fourval.Dn -> add fst_id.(m) (Sg.Ev (new_sig, Sg.F)) snd_id.(m)
    | Fourval.V0 | Fourval.V1 -> ()
  done;
  (* Re-routed original edges. *)
  Array.iter
    (fun e ->
      let v = x.Sg.values.(e.Sg.src) and v' = x.Sg.values.(e.Sg.dst) in
      let s = e.Sg.src and d = e.Sg.dst in
      match (v, v') with
      | Fourval.V0, Fourval.V0 | Fourval.V1, Fourval.V1 ->
        add fst_id.(s) e.Sg.label fst_id.(d)
      | Fourval.V0, Fourval.Up | Fourval.V1, Fourval.Dn ->
        add fst_id.(s) e.Sg.label fst_id.(d)
      | Fourval.Up, Fourval.V1 | Fourval.Dn, Fourval.V0 ->
        add snd_id.(s) e.Sg.label fst_id.(d)
      | Fourval.Up, Fourval.Up | Fourval.Dn, Fourval.Dn ->
        add fst_id.(s) e.Sg.label fst_id.(d);
        add snd_id.(s) e.Sg.label snd_id.(d)
      | _ ->
        (* add_extra validated the assignment, so this cannot happen *)
        assert false)
    (Sg.edges sg);
  let signals =
    Array.append
      (Array.init ns (fun s ->
           { Sg.sname = Sg.signal_name sg s; non_input = Sg.non_input sg s }))
      [| { Sg.sname = x.Sg.xname; non_input = true } |]
  in
  let initial = fst_id.(Sg.initial sg) in
  let base =
    Sg.make ~name:(Sg.name sg) ~signals ~codes ~edges:(List.rev !edges)
      ~initial
  in
  (* Remaining extras: both halves inherit the old state's value. *)
  Array.fold_left
    (fun acc (y : Sg.extra) ->
      let values = Array.make n' Fourval.V0 in
      for m = 0 to n - 1 do
        values.(fst_id.(m)) <- y.Sg.values.(m);
        if snd_id.(m) >= 0 then values.(snd_id.(m)) <- y.Sg.values.(m)
      done;
      Sg.add_extra acc ~name:y.Sg.xname ~values)
    base rest

let rec expand sg = if Sg.n_extras sg = 0 then sg else expand (expand_one sg)

(* ---------------- Implementability on the unexpanded graph ----------------

   [expand sg] is the synchronized product of [sg] with one two-state
   component per extra: its states are the pairs [(m, h)], [h] choosing a
   half [A] or [B] of every extra ([B] only where that extra is excited at
   [m]), and every copy exists whether reachable or not.  Per extra [i]:
   - the code bit is [binary v_i(m) xor (h_i = B)];
   - the inserted [x_i] edge goes from [h_i = A] to [h_i = B] at the same
     base state, so it is never disabled and disables nothing;
   - a base edge [m -> t] is missing from half [A] when [i] is excited at
     [m] and stable at [t] (half [B] takes it into [t]'s only half [A]);
     otherwise it stays in its half.
   With the extras as bitmasks ([ex m]: excited at [m]; [st m]: stable)
   these rules are word operations: base edge [m -> t] is missing in
   half [A] of the extras [ex m land st t], and the copy of [t] in half
   [A] of the extras [act] has lost every edge [t -> u] with
   [act land st u <> 0]. *)

type view = {
  sg : Sg.t;
  full : int;  (** mask of all extras *)
  ex : int array;  (** per state: the extras excited there *)
  bin : int array;  (** per state: the binary value of every extra *)
  off : int array;
      (** out-edges of [m] are [off.(m) .. off.(m + 1) - 1], by label *)
  lab : int array;
      (** [2s] for [Ev (s, R)], [2s + 1] for [Ev (s, F)], [-1] for ε *)
  dst : int array;
}

let label_code = function
  | Sg.Ev (s, Sg.R) -> 2 * s
  | Sg.Ev (s, Sg.F) -> (2 * s) + 1
  | Sg.Eps -> -1

let view sg =
  let n = Sg.n_states sg and k = Sg.n_extras sg in
  if k > 0 && Sg.n_signals sg + k > 62 then
    raise (Sg.Inconsistent "more than 62 visible signals");
  let ex = Array.make n 0 and bin = Array.make n 0 in
  Array.iteri
    (fun i (x : Sg.extra) ->
      let b = 1 lsl i in
      Array.iteri
        (fun m v ->
          if Fourval.excited v then ex.(m) <- ex.(m) lor b;
          if Fourval.binary v then bin.(m) <- bin.(m) lor b)
        x.Sg.values)
    (Sg.extras sg);
  let off = Array.make (n + 1) 0 in
  for m = 0 to n - 1 do
    off.(m + 1) <- off.(m) + List.length (Sg.succ sg m)
  done;
  let lab = Array.make off.(n) 0 and dst = Array.make off.(n) 0 in
  for m = 0 to n - 1 do
    let j = ref off.(m) in
    List.iter
      (fun (e : Sg.edge) ->
        (* insertion sort: out-degrees are small *)
        let l = label_code e.Sg.label and i = ref !j in
        while !i > off.(m) && lab.(!i - 1) > l do
          lab.(!i) <- lab.(!i - 1);
          dst.(!i) <- dst.(!i - 1);
          decr i
        done;
        lab.(!i) <- l;
        dst.(!i) <- e.Sg.dst;
        incr j)
      (Sg.succ sg m)
  done;
  { sg; full = (1 lsl k) - 1; ex; bin; off; lab; dst }

let st v m = v.full land lnot v.ex.(m)

(* Only non-input visible events count; ε and inputs never do. *)
let non_input_event v l = l >= 0 && Sg.non_input v.sg (l lsr 1)

(* End of [m]'s label group that starts at edge index [i]. *)
let group_end v m i =
  let l = v.lab.(i) and j = ref (i + 1) in
  while !j < v.off.(m + 1) && v.lab.(!j) = l do incr j done;
  !j

(* Start of [m]'s group labelled [l]; its end when [m] has none. *)
let find_group v m l =
  let i = ref v.off.(m) in
  while !i < v.off.(m + 1) && v.lab.(!i) < l do incr i done;
  !i

(* Every out-edge of [t] labelled [l] is lost in the copy of [t] in
   half [A] of the extras [act]. *)
let all_lost v t l act =
  let i = ref (find_group v t l) and lost = ref true in
  while !lost && !i < v.off.(t + 1) && v.lab.(!i) = l do
    if act land st v v.dst.(!i) = 0 then lost := false;
    incr i
  done;
  !lost

(* -- Semi-modularity --

   Firing base edge [f : m -> t] from copy [(m, h)] disables the excited
   non-input event [g <> label f] when some edge [g1 : m -> u] labelled
   [g] is enabled at [h] and every [g]-edge of [t] is lost in the copy
   [f] lands in.  Half [B] of every extra excited at [m] enables both
   [f] and [g1]; half [A] can only add losses at [t], and is open to
   exactly the extras [ex t land lnot (ex m land st u)]. *)
let sm_violated v m fi g g_start g_end =
  let t = v.dst.(fi) and found = ref false and i = ref g_start in
  while (not !found) && !i < g_end do
    let act = v.ex.(t) land lnot (v.ex.(m) land st v v.dst.(!i)) in
    if all_lost v t g act then found := true;
    incr i
  done;
  !found

(* Calls [k m fi g_start g_end] on every base edge [fi] of every state
   [m] and every group [g_start .. g_end - 1] of [m]'s edges labelled
   with another non-input event, when some copy of [m] violates. *)
let iter_sm_violations v k =
  for m = 0 to Sg.n_states v.sg - 1 do
    for fi = v.off.(m) to v.off.(m + 1) - 1 do
      let gi = ref v.off.(m) in
      while !gi < v.off.(m + 1) do
        let g = v.lab.(!gi) and g_end = group_end v m !gi in
        if g <> v.lab.(fi) && non_input_event v g
           && sm_violated v m fi g !gi g_end
        then k m fi !gi g_end;
        gi := g_end
      done
    done
  done

exception Violation

let semi_modular v =
  match iter_sm_violations v (fun _ _ _ _ -> raise Violation) with
  | () -> true
  | exception Violation -> false

let is_semi_modular sg = semi_modular (view sg)

(* The violating copies [(m, h)] of one triple, counted by the set of
   extras [h] puts in half [B]: forced on [ex m land st t] (else [f] is
   missing), free on [ex m land ex t], [A] elsewhere.  A copy violates
   when some [g1 : m -> u_j] is enabled (its [ex m land st u_j] is all
   in half [B]) and every [g2 : t -> w_k] is lost ([ex t land st w_k]
   meets half [A]).  A DP over the free extras counts copies per
   (enabled [g1]s, lost [g2]s) bitmask. *)
let count_copies v m fi g_start g_end =
  let t = v.dst.(fi) and g = v.lab.(g_start) in
  let t_start = find_group v t g in
  let t_end =
    if t_start < v.off.(t + 1) && v.lab.(t_start) = g then
      group_end v t t_start
    else t_start
  in
  let k1 = g_end - g_start and k2 = t_end - t_start in
  if k1 + k2 > 62 then invalid_arg "Sg_expand.violation_count: label groups";
  let needs_b j = v.ex.(m) land st v v.dst.(g_start + j) in
  let loses k = v.ex.(t) land st v v.dst.(t_start + k) in
  let all_enabled = (1 lsl k1) - 1 and all_lost = ((1 lsl k2) - 1) lsl k1 in
  let init = ref all_enabled in
  for k = 0 to k2 - 1 do
    if loses k land lnot v.ex.(m) <> 0 then init := !init lor (1 lsl (k1 + k))
  done;
  let free = v.ex.(m) land v.ex.(t) in
  let dp = ref [ (!init, 1) ] and mult = ref 1 in
  for i = 0 to Sg.n_extras v.sg - 1 do
    let b = 1 lsl i in
    if free land b <> 0 then begin
      (* half [A] of [i] disables the [g1]s in [off_] and loses the
         [g2]s in [lose] *)
      let off_ = ref 0 and lose = ref 0 in
      for j = 0 to k1 - 1 do
        if needs_b j land b <> 0 then off_ := !off_ lor (1 lsl j)
      done;
      for k = 0 to k2 - 1 do
        if loses k land b <> 0 then lose := !lose lor (1 lsl (k1 + k))
      done;
      if !off_ = 0 && !lose = 0 then mult := 2 * !mult
      else begin
        let tbl = Hashtbl.create 8 in
        let add s c =
          let prev = Option.value (Hashtbl.find_opt tbl s) ~default:0 in
          Hashtbl.replace tbl s (prev + c)
        in
        List.iter
          (fun (s, c) ->
            add s c;
            add ((s land lnot !off_) lor !lose) c)
          !dp;
        dp := Hashtbl.fold (fun s c acc -> (s, c) :: acc) tbl []
      end
    end
  done;
  List.fold_left
    (fun acc (s, c) ->
      if s land all_enabled <> 0 && s land all_lost = all_lost then acc + c
      else acc)
    0 !dp
  * !mult

let violation_count sg =
  let v = view sg and n = ref 0 in
  iter_sm_violations v (fun m fi gs ge -> n := !n + count_copies v m fi gs ge);
  !n

(* -- CSC --

   Copies [(m, h)] and [(m', h')] share a code when [m] and [m'] do and,
   per extra, the halves give equal bits: [AA] when the binary values
   are equal, [AB] / [BA] when they differ and the [B] side is excited,
   [BB] when they are equal and both sides excited.  Such copies
   conflict when they differ in the excitation of some [x_i] or of some
   non-input base event. *)

(* With no [x_i] telling the copies apart, an extra excited at one of
   [s], [d] with equal binary values is excited at both, and one with
   different values is excited at most at one, which then sits in half
   [B].  So a non-input event is enabled at some copy of [s] and not at
   the matching copy of [d] when an edge [g1 : s -> u] stays enabled
   while both sit in half [A] of the extras [both] excited at [u] (half
   [B] elsewhere keeps [g1] enabled), and [d]'s copy has lost all its
   edges with [g1]'s label. *)
let event_only_at v s d ~both =
  let found = ref false and gi = ref v.off.(s) in
  while (not !found) && !gi < v.off.(s + 1) do
    let g = v.lab.(!gi) and g_end = group_end v s !gi in
    if non_input_event v g then begin
      let i = ref !gi in
      while (not !found) && !i < g_end do
        if all_lost v d g (both land v.ex.(v.dst.(!i))) then found := true;
        incr i
      done
    end;
    gi := g_end
  done;
  !found

let csc_conflict v m m' =
  let exm = v.ex.(m) and exm' = v.ex.(m') in
  let eq = v.full land lnot (v.bin.(m) lxor v.bin.(m')) in
  let ne = v.full land lnot eq in
  (* every extra has a half pair: [AA], [AB], [BA] or [BB] *)
  eq lor exm lor exm' = v.full
  && ((* [x_i] differs under [AA], or under [AB] / [BA] *)
      (eq land (exm lxor exm')) lor (ne land exm land exm') <> 0
     ||
     let both = eq land exm land exm' in
     event_only_at v m m' ~both || event_only_at v m' m ~both)

(* Pairs of base states within each visible-code class. *)
let csc_ok v =
  let sg = v.sg in
  let n = Sg.n_states sg in
  let order = Array.init n Fun.id in
  let code m = Sg.code sg m in
  Array.stable_sort (fun a b -> Int.compare (code a) (code b)) order;
  let rec classes i =
    i >= n
    ||
    let c = Sg.code sg order.(i) and j = ref (i + 1) in
    while !j < n && Sg.code sg order.(!j) = c do incr j done;
    let ok = ref true and a = ref i in
    while !ok && !a < !j do
      for b = !a + 1 to !j - 1 do
        if !ok && csc_conflict v order.(!a) order.(b) then ok := false
      done;
      incr a
    done;
    !ok && classes !j
  in
  classes 0

let csc_satisfied sg = csc_ok (view sg)

let implementable sg =
  let v = view sg in
  csc_ok v && semi_modular v
