open Stg_builder

(* A four-phase pulse whose return-to-zero reuses the request code: the
   states before req+ and after ack- share a code with different
   excitation, so every instance contributes CSC conflicts. *)
let pulse req ack = seq [ plus req; plus ack; minus ack; minus req ]

let pipeline ~stages =
  if stages < 1 then invalid_arg "Bench_gen.pipeline";
  let stage i = pulse (Printf.sprintf "r%d" i) (Printf.sprintf "a%d" i) in
  let proc = seq (List.init stages stage) in
  let inputs = List.init stages (Printf.sprintf "r%d") in
  let outputs = List.init stages (Printf.sprintf "a%d") in
  compile ~name:(Printf.sprintf "pipeline%d" stages) ~inputs ~outputs proc

let concurrent_pulsers ~branches =
  if branches < 1 || branches > 8 then
    invalid_arg "Bench_gen.concurrent_pulsers";
  let branch i = pulse (Printf.sprintf "r%d" i) (Printf.sprintf "a%d" i) in
  let proc =
    seq [ plus "go"; par (List.init branches branch); minus "go" ]
  in
  let inputs = "go" :: List.init branches (Printf.sprintf "r%d") in
  let outputs = List.init branches (Printf.sprintf "a%d") in
  compile ~name:(Printf.sprintf "pulsers%d" branches) ~inputs ~outputs proc

(* A daisy-chain token ring: all signals rise in order, then all fall in
   order.  Between two successive events of any signal exactly one event
   of every other signal occurs, so all signal pairs are locked (they
   strictly alternate in every execution) and the state codes are
   pairwise distinct: CSC holds by construction.  This is the family the
   A6 lock-relation prescreen certifies statically, letting synthesis
   skip SAT outright. *)
let lock_ring ~signals =
  if signals < 2 || signals > 26 then invalid_arg "Bench_gen.lock_ring";
  let name i = Printf.sprintf "s%d" i in
  let proc =
    seq
      (List.init signals (fun i -> plus (name i))
      @ List.init signals (fun i -> minus (name i)))
  in
  compile
    ~name:(Printf.sprintf "lockring%d" signals)
    ~inputs:[ name 0 ]
    ~outputs:(List.init (signals - 1) (fun i -> name (i + 1)))
    proc

(* Independent four-phase handshake rings running fully concurrently.
   Each ring in isolation visits 4 states with distinct codes and CSC
   holds for the product too (each ring's signals encode its own phase),
   but pairs of signals from different rings never alternate, so the
   lock relation fails and A6 abstains: this is exactly the family the
   exact U3 rule certifies while the structural one cannot.
   States grow as [4^rings]; the prefix stays linear ([4·rings]
   non-cutoff events). *)
let parallel_rings ~rings =
  if rings < 1 || rings > 8 then invalid_arg "Bench_gen.parallel_rings";
  let ring i =
    let r = Printf.sprintf "r%d" i and a = Printf.sprintf "a%d" i in
    seq [ plus r; plus a; minus r; minus a ]
  in
  let proc = par (List.init rings ring) in
  let inputs = List.init rings (Printf.sprintf "r%d") in
  let outputs = List.init rings (Printf.sprintf "a%d") in
  compile ~name:(Printf.sprintf "parrings%d" rings) ~inputs ~outputs proc

(* Random well-formed STGs for the differential fuzzing oracle: a small
   tree of seq/par/choice combinators whose leaves are four-phase pulses
   on fresh request/acknowledge pairs.  Every leaf returns its signals
   to zero, so any combination is live, safe and consistent; the pulses
   contribute genuine CSC conflicts, and choice nodes add environment
   nondeterminism. *)
let random ~rand =
  let n_pulses = ref 0 in
  let fresh_pulse () =
    let i = !n_pulses in
    incr n_pulses;
    pulse (Printf.sprintf "r%d" i) (Printf.sprintf "a%d" i)
  in
  let pick n = Random.State.int rand n in
  let rec gen depth =
    if depth = 0 || !n_pulses >= 4 then fresh_pulse ()
    else
      match pick 5 with
      | 0 | 1 -> fresh_pulse ()
      | 2 -> seq [ gen (depth - 1); gen (depth - 1) ]
      | 3 -> par [ gen (depth - 1); gen (depth - 1) ]
      | _ -> choice [ gen (depth - 1); gen (depth - 1) ]
  in
  let proc = gen 2 in
  let tag = pick 1_000_000 in
  let names f = List.init !n_pulses (fun i -> Printf.sprintf "%s%d" f i) in
  compile
    ~name:(Printf.sprintf "fuzz%d_p%d" tag !n_pulses)
    ~inputs:(names "r") ~outputs:(names "a") proc

let mixed ~stages ~branches =
  if stages < 1 || branches < 1 || branches > 8 then
    invalid_arg "Bench_gen.mixed";
  let section s =
    let branch b =
      pulse (Printf.sprintf "r%d_%d" s b) (Printf.sprintf "a%d_%d" s b)
    in
    par (List.init branches branch)
  in
  let proc = seq (List.init stages section) in
  let names f =
    List.concat_map
      (fun s -> List.init branches (fun b -> Printf.sprintf "%s%d_%d" f s b))
      (List.init stages Fun.id)
  in
  compile
    ~name:(Printf.sprintf "mixed%dx%d" stages branches)
    ~inputs:(names "r") ~outputs:(names "a") proc
