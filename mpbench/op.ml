(* One benchmark operation: what [mpsyn synth] does for one net, through
   the library — parse the [.g] text, run the lint gate, synthesize —
   plus the checks that run outside the timed region. *)

let config ~jobs = { Mpart.default_config with Mpart.jobs }

exception Rejected of string

(* How a library call is wrapped: in a span by the replay, not at all by
   the untimed-tracing operation. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* Parse and lint gate, shared by the untraced operation and the replay. *)
let parse_and_lint { span } (net : Workload.net) =
  let stg, map =
    span "stg.parse" (fun () ->
        match Gformat.parse_string_spans ~name:net.Workload.name net.Workload.text with
        | r -> r
        | exception Gformat.Parse_error msg -> raise (Rejected ("parse: " ^ msg)))
  in
  span "analysis.lint" (fun () ->
      let { Lint.report; _ } = Lint.run ~map stg in
      if not (Diagnostic.clean report) then
        raise
          (Rejected
             (Printf.sprintf "lint: %d error(s)"
                (List.length (Diagnostic.errors report)))));
  stg

let describe = function
  | Rejected msg -> msg
  | Mpart.Synthesis_failed msg -> "synthesis failed: " ^ msg
  | e -> "exception: " ^ Printexc.to_string e

(* [run ~jobs net] never raises: every failure is an [Error]. *)
let run ~jobs net =
  match
    let stg = parse_and_lint untraced net in
    Mpart.synthesize ~config:(config ~jobs) stg
  with
  | r -> Ok r
  | exception e -> Error (describe e)

(* The checks [mpsyn synth] prints after synthesis. *)
let check r =
  if not (Persistency.is_semi_modular r.Mpart.expanded) then
    Some "expanded graph is not semi-modular"
  else Mpart.verify r

(* The independent gate-level conformance check, as [mpsyn verify
   --force-dynamic] runs it: the netlist is simulated even when the static
   H1-H5 rules certify it. *)
let certify r =
  let report =
    Oracle.certify ~max_states:1_000_000 ~skip_when_certified:false
      (Oracle.impl_of_result r)
  in
  if Oracle.passed report then None else Some "Oracle.certify failed"

(* What must be byte-identical across runs, passes and commits. *)
type signature = {
  literals : int;
  state_signals : int;
  final_signals : int;
  netlist_digest : string;
  expanded_digest : string;
}

let signature r =
  let impl = Oracle.impl_of_result r in
  {
    literals = Mpart.area_literals r;
    state_signals = Mpart.n_state_signals r;
    final_signals = Mpart.final_signals r;
    netlist_digest =
      Digest.to_hex (Digest.string (Netlist.to_verilog impl.Oracle.netlist));
    expanded_digest = Sg.digest r.Mpart.expanded;
  }

(* The covers as text, for comparing two runs function by function. *)
let covers_text functions =
  Format.asprintf "%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Derive.pp_func)
    functions
