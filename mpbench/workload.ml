(* The benchmark's workloads.  Every net reaches the program under test
   as [.g] text: the Table-1 nets are read from [data/], and the
   generated families are built with {!Bench_gen} once, during set-up,
   and rendered to text.  Why each workload exists is in README.md. *)

type net = { name : string; text : string }

type t = {
  name : string;
  jobs : int;  (** {!Mpart.config} [jobs] for every net of the workload *)
  nets : net list;
}

let names = [ "table1"; "expand"; "rings" ]

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* All [data/*.g] nets, in file-name order. *)
let data_nets data_dir =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare
  |> List.map (fun f ->
         {
           name = Filename.chop_suffix f ".g";
           text = read_file (Filename.concat data_dir f);
         })

let generated name stg = { name; text = Gformat.to_string stg }

let pipeline n =
  generated (Printf.sprintf "pipeline-n%d" n) (Bench_gen.pipeline ~stages:n)

let parrings n =
  generated (Printf.sprintf "parrings-n%d" n) (Bench_gen.parallel_rings ~rings:n)

(* [build ?data_dir name] raises [Invalid_argument] on an unknown name
   and [Sys_error] when [data/] is missing. *)
let build ?(data_dir = "data") = function
  | "table1" -> { name = "table1"; jobs = 1; nets = data_nets data_dir }
  | "expand" ->
    {
      name = "expand";
      jobs = 1;
      nets =
        [
          pipeline 10;
          pipeline 11;
          pipeline 12;
          generated "mixed-n4-k2" (Bench_gen.mixed ~stages:4 ~branches:2);
          generated "pulsers-k4" (Bench_gen.concurrent_pulsers ~branches:4);
        ];
    }
  | "rings" -> { name = "rings"; jobs = 2; nets = [ parrings 5; parrings 6 ] }
  | other -> invalid_arg ("unknown workload " ^ other)

(* The untimed warm-up net: the workload's net with the shortest text. *)
let warmup w =
  List.fold_left
    (fun best n -> if String.length n.text < String.length best.text then n else best)
    (List.hd w.nets) w.nets

(* The order of one pass: the nets shuffled by (seed, pass), so heap
   state left by one net does not always precede the same neighbour. *)
let shuffled ~seed ~pass nets =
  let rand = Random.State.make [| seed; pass |] in
  let a = Array.of_list nets in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
