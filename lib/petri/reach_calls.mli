(** Process-wide explicit-exploration counter.

    {!Reach.explore} bumps this counter once per call, mirroring
    {!Solver_calls} for the constraint engines.  Tests assert the delta
    around a run to prove how often it explores, rather than trusting
    the claim: lint rules U1–U4 explore exactly once behind a complete
    {!Unfold} prefix and never behind a truncated one.

    The counter is atomic, so explorations issued from pool domains
    ({!Pool}) are counted exactly under [--jobs N]. *)

(** [bump ()] records one explicit exploration. *)
val bump : unit -> unit

(** [total ()] is the number of explorations since start (or last reset). *)
val total : unit -> int

(** [reset ()] zeroes the counter (single-threaded test use only). *)
val reset : unit -> unit
