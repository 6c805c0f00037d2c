(** Rule A1: structural signal consistency.

    A consistent STG alternates [s+] and [s-] along every execution.
    Full consistency needs the state graph, but two structural
    necessary conditions catch most specification bugs without it:

    - a signal whose live transitions are all rising (or all falling)
      can change in one direction only;
    - every T-invariant — the structural generator of cyclic behaviour —
      must fire [s+] and [s-] equally often, otherwise some candidate
      cycle drives the signal up more than down.

    A specification that declares no signals at all (an empty file, or
    a [.model] line alone) is an error too: it specifies no behaviour. *)

val check :
  loc:Diagnostic.locator ->
  Stg.t ->
  tinvs:Invariants.t_invariant list option ->
  fireable:bool array ->
  Diagnostic.t list
