(* The mpsyn-bench/1 regression gate, driven by [Trajectory.columns]: the
   committed baseline passes against itself and survives a write/read
   round trip byte for byte; for every gated column, one value pushed
   past its rule on one row fails and names that column, while a value
   inside the factor or the floor passes; and a column missing from
   either file fails. *)

open Trajectory

let baseline_path = Filename.concat (Filename.concat ".." "bench") "BENCH_baseline.json"
let baseline () = read baseline_path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [f] applied to a fresh file holding [rows]. *)
let with_file rows f =
  let path = Filename.temp_file "mpsyn-trajectory" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path ~jobs:2 (List.map snd rows);
      f path)

(* Write [rows] and read them back, as [check] sees a fresh file. *)
let through_file rows = with_file rows (fun path -> (read path, read_file path))

let gate fresh = failures ("fresh", fresh) ("baseline", baseline ())

(* [rows] with [key] of row [name] replaced by [v]. *)
let set rows name key v =
  List.map
    (fun (n, row) ->
      (n, if n = name then List.map (fun (k, x) -> (k, if k = key then v else x)) row else row))
    rows

let test_self () =
  Alcotest.(check int) "check exit" 0 (check baseline_path baseline_path);
  Alcotest.(check int) "failures" 0 (List.length (gate (baseline ())))

let test_check_exit () =
  let base = baseline () in
  with_file (set base (fst (List.hd base)) "identical" (Bool false)) (fun path ->
      Alcotest.(check int) "check exit" 1 (check path baseline_path))

let test_round_trip () =
  let rows, text = through_file (baseline ()) in
  Alcotest.(check bool) "rows unchanged" true (rows = baseline ());
  Alcotest.(check string) "bytes unchanged" (read_file baseline_path) text

(* The value of column [c] at [x], in the column's own format. *)
let of_float c x = match c.fmt with D -> Int (int_of_float x) | _ -> Float x

(* For a gated column: the row to push, values that break the rule and
   values inside it. *)
let cases c =
  let base = baseline () in
  let first = fst (List.hd base) in
  let b name = num (List.assoc c.key (List.assoc name base)) in
  match c.rule with
  | Recorded -> None
  | Must_be_true -> Some (first, [ Bool false ], [ Bool true ])
  | Stays_certified ->
    Some (first, [ Str "refuted"; Str "abstained" ], [ Str "certified" ])
  | No_drop ->
    let most = List.fold_left (fun m (n, _) -> if b n > b m then n else m) first base in
    let n = int_of_float (b most) in
    Some (most, [ Int (n - 1) ], [ Int n; Int (n + 1) ])
  | Above_2x floor ->
    let top = 2.0 *. Float.max (b first) floor in
    Some
      ( first,
        [ of_float c (top +. 1.0) ],
        [ of_float c (2.0 *. b first); of_float c floor ] )

let test_gated_columns () =
  let gated = ref 0 in
  List.iter
    (fun c ->
      match cases c with
      | None -> ()
      | Some (name, breaking, inside) ->
        incr gated;
        List.iter
          (fun v ->
            let fresh, _ = through_file (set (baseline ()) name c.key v) in
            match gate fresh with
            | [ (row, why) ] ->
              Alcotest.(check string) (c.key ^ " fails on its row") name row;
              Alcotest.(check bool)
                (Printf.sprintf "%s named in %S" c.key why)
                true
                (String.starts_with ~prefix:(c.key ^ " ") why)
            | fails ->
              Alcotest.failf "%s: expected one failure, got %d" c.key
                (List.length fails))
          breaking;
        List.iter
          (fun v ->
            let fresh, _ = through_file (set (baseline ()) name c.key v) in
            Alcotest.(check int) (c.key ^ " inside its rule passes") 0
              (List.length (gate fresh)))
          inside)
    columns;
  (* 4 must be true, 1 stays certified, 1 may not drop, 11 above 2x *)
  Alcotest.(check int) "gated columns" 17 !gated

let test_missing_column () =
  let base = baseline () in
  let name = fst (List.hd base) in
  let drop key =
    List.map (fun (n, row) -> (n, if n = name then List.remove_assoc key row else row)) base
  in
  List.iter
    (fun c ->
      if c.key <> "name" then begin
        let expect file fails =
          Alcotest.(check (list (pair string string)))
            (c.key ^ " missing from " ^ file)
            [ (name, Printf.sprintf "%s missing from %s" c.key file) ]
            fails
        in
        expect "fresh" (failures ("fresh", drop c.key) ("baseline", base));
        expect "baseline" (failures ("fresh", base) ("baseline", drop c.key))
      end)
    columns;
  Alcotest.(check (list (pair string string)))
    "missing row"
    [ (name, "missing from fresh") ]
    (failures ("fresh", List.tl base) ("baseline", base))

let () =
  Alcotest.run "trajectory"
    [
      ( "gate",
        [
          Alcotest.test_case "baseline against itself" `Quick test_self;
          Alcotest.test_case "a failure exits 1" `Quick test_check_exit;
          Alcotest.test_case "write/read round trip" `Quick test_round_trip;
          Alcotest.test_case "every gated column" `Quick test_gated_columns;
          Alcotest.test_case "missing column" `Quick test_missing_column;
        ] );
    ]
