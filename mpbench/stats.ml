(* Order statistics used for every reported figure.  [quartiles] follows
   Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the spreads printed here are the ones a Python reader of
   the JSON output would compute from the same samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quartiles xs] is (q1, q2, q3).  One sample is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n
    in
    (q 1, q 2, q 3)

(* Geometric mean of positive samples: every sample gets equal weight on
   a ratio scale, so a 2x slowdown on a 5 ms net moves it as much as a 2x
   slowdown on a 5 s net. *)
let gmean xs =
  match xs with
  | [] -> invalid_arg "Stats.gmean: no samples"
  | _ ->
    if List.exists (fun x -> x <= 0.0) xs then
      invalid_arg "Stats.gmean: non-positive sample";
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float (List.length xs))
