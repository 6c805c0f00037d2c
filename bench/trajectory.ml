(* The mpsyn-bench/1 trajectory: one benchmark per line.  The column
   table is the whole format — each column's JSON key, print format and
   regression rule — and it drives the writer, the reader and [check]. *)

type value = Int of int | Float of float | Bool of bool | Str of string

type fmt = D | F of int | B | S  (* %d, %.<n>f, %b, %S *)

type rule =
  | Recorded  (* written and read back, never gated *)
  | Must_be_true  (* a correctness verdict: gates whatever the baseline *)
  | Stays_certified  (* a baseline "certified" may not be lost *)
  | No_drop  (* a deterministic saving may not fall below the baseline *)
  | Above_2x of float  (* fails above twice the baseline and the floor *)

type column = { key : string; fmt : fmt; rule : rule }

(* Floors keep noise out: scheduler noise below 0.05 s (0.5 s for the
   solver runs, whose deterministic counters catch regressions at any
   scale), trivial nets below 1000, minor-heap sizing below 1M words. *)
let columns =
  List.map
    (fun (key, fmt, rule) -> { key; fmt; rule })
    [
      ("name", S, Recorded);
      ("states", D, Recorded);
      ("area", D, Recorded);
      ("time_jobs1", F 6, Recorded);
      ("time_parallel", F 6, Above_2x 0.05);
      ("speedup", F 3, Recorded);
      ("identical", B, Must_be_true);
      ("hazard", S, Stays_certified);
      ("hazard_time", F 6, Above_2x 0.05);
      ("dynamic_time", F 6, Recorded);
      ("bdd_nodes", D, Recorded);
      ("cache_cold", F 6, Recorded);
      ("cache_warm", F 6, Above_2x 0.05);
      ("cache_speedup", F 3, Recorded);
      ("cache_hits", D, Recorded);
      ("cache_identical", B, Must_be_true);
      ("prefix_events", D, Recorded);
      ("prefix_time", F 6, Recorded);
      ("prefix_agree", B, Must_be_true);
      ("solver_bdd_ops", D, Above_2x 1000.);
      ("solver_props", D, Above_2x 1000.);
      ("solver_conflicts", D, Above_2x 1000.);
      ("solver_time", F 6, Above_2x 0.5);
      ("partition_dup", D, Recorded);
      ("partition_saved", D, No_drop);
      ("partition_time", F 6, Above_2x 0.05);
      ("symbolic_time", F 6, Above_2x 0.05);
      ("symbolic_nodes", D, Above_2x 1000.);
      ("symbolic_agree", B, Must_be_true);
      ("peak_live_words", D, Above_2x 1e6);
    ]

let print fmt v =
  match (fmt, v) with
  | D, Int n -> string_of_int n
  | F d, Float x -> Printf.sprintf "%.*f" d x
  | B, Bool b -> string_of_bool b
  | S, Str s -> Printf.sprintf "%S" s
  | _ -> invalid_arg "Trajectory.print: value does not fit the format"

let parse fmt tok =
  match fmt with
  | D -> Scanf.sscanf_opt tok "%d%!" (fun n -> Int n)
  | F _ -> Scanf.sscanf_opt tok "%f%!" (fun x -> Float x)
  | B -> Scanf.sscanf_opt tok "%B%!" (fun b -> Bool b)
  | S -> Scanf.sscanf_opt tok "%S%!" (fun s -> Str s)

let num = function Int n -> float_of_int n | Float x -> x | _ -> nan

let write path ~jobs rows =
  let cell row c = Printf.sprintf "%S:%s" c.key (print c.fmt (List.assoc c.key row)) in
  let line row = "    {" ^ String.concat "," (List.map (cell row) columns) ^ "}" in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": \"mpsyn-bench/1\",\n  \"jobs\": %d,\n  \"benchmarks\": [\n%s\n  ]\n}\n"
        jobs (String.concat ",\n" (List.map line rows)))

(* A line holding a flat JSON object with a "name" is a row.  Cells split
   at commas (string values hold no ',' or '}'); a cell that is not in the
   table or does not parse in its format is dropped, so [check] fails. *)
let parse_row line =
  let cell kv =
    Option.join
      (Scanf.sscanf_opt kv " %S : %s%!" (fun key tok ->
           List.find_opt (fun c -> c.key = key) columns
           |> Fun.flip Option.bind (fun c -> parse c.fmt tok)
           |> Option.map (fun v -> (key, v))))
  in
  Option.bind (Scanf.sscanf_opt line " {%[^}]}" Fun.id) (fun body ->
      let row = List.filter_map cell (String.split_on_char ',' body) in
      match List.assoc_opt "name" row with Some (Str n) -> Some (n, row) | _ -> None)

let read path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> List.filter_map parse_row

let violation rule ~base ~fresh =
  match rule with
  | Must_be_true when fresh <> Bool true -> Some "must be true"
  | Stays_certified when base = Str "certified" && fresh <> base ->
    Some "must stay certified"
  | No_drop when num fresh < num base -> Some "may not drop"
  | Above_2x floor when num fresh > 2.0 *. num base && num fresh > floor ->
    Some (Printf.sprintf "> 2x baseline and > %g" floor)
  | _ -> None

(* One (row, why) failure per baseline row missing from the fresh file,
   per column missing from either file, and per violated rule. *)
let failures (fresh_file, fresh) (base_file, base) =
  List.concat_map
    (fun (name, b) ->
      let fail fmt = Printf.ksprintf (fun m -> [ (name, m) ]) fmt in
      match List.assoc_opt name fresh with
      | None -> fail "missing from %s" fresh_file
      | Some f ->
        List.concat_map
          (fun c ->
            match (List.assoc_opt c.key b, List.assoc_opt c.key f) with
            | None, _ | _, None ->
              let file = if List.mem_assoc c.key b then fresh_file else base_file in
              fail "%s missing from %s" c.key file
            | Some bv, Some fv -> (
              match violation c.rule ~base:bv ~fresh:fv with
              | None -> []
              | Some why ->
                fail "%s %s vs baseline %s (%s)" c.key (print c.fmt fv)
                  (print c.fmt bv) why))
          columns)
    base

let check fresh_path base_path =
  let fails = failures (fresh_path, read fresh_path) (base_path, read base_path) in
  List.iter (fun (name, why) -> Printf.printf "%-16s FAIL: %s\n" name why) fails;
  if fails = [] then Printf.printf "bench check: no regression vs %s\n" base_path
  else Printf.printf "bench check: %d failure(s) vs %s\n" (List.length fails) base_path;
  if fails = [] then 0 else 1
