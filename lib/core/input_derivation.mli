(** Input signal set derivation — algorithm [determine_input_set] of the
    paper (Figure 2).

    The input signal set of an output [o] is the minimal set of signals
    needed to implement [o]'s logic.  Starting from the immediate input
    set (signals whose transitions directly precede a transition of [o]),
    every other signal is greedily hidden — its transitions relabelled ε
    and the ε-connected states merged — as long as

    - the number of CSC conflicts {e relevant to o} (equal-code pairs
      with different implied value of [o], {!Csc.output_conflict_pairs})
      does not increase,
    - no merge class mixes both implied values of [o] (which would make
      [o]'s logic ill-defined over the module and hide a conflict this
      module must resolve), and
    - every already-inserted state signal stays representable under the
      Figure-3 merge rules.

    The homogeneity condition guarantees that {e every} conflict of [o]
    in the complete graph survives as a separable conflict in the module,
    so the per-output passes collectively remove all CSC conflicts — the
    convergence the paper reports observing in practice.  Finally,
    inserted state signals whose removal would increase [o]'s conflicts
    are kept in the module.

    {b Incremental derivation.}  Each candidate (an extra to drop, a
    signal to hide) is quotiented from the module graph accepted so far,
    not from the complete graph, and the covers compose.  This gives the
    same result as quotienting the complete graph by all accepted
    removals at once, byte for byte ({!Sg.quotient}'s composition
    contract):
    - hiding H and then S merges the same states as hiding H ∪ S, and
      both number classes by their smallest complete-graph member and
      keep edges in first-occurrence order;
    - Fig. 3 merges compose over accepted classes, and every edge of an
      accepted graph already passes {!Fourval.edge_ok}, so a candidate
      fails on the module exactly when it fails on the complete graph.
    Homogeneity is read from one array over the accepted classes, the
    implied values of [o] met in each (false, true or both), merged
    along the candidate's cover.  So a candidate costs the size of the
    current module, which shrinks with every accepted hide, and never
    the size of the complete graph. *)

type t = {
  output : int;  (** signal id in the complete graph *)
  input_set : int list;
      (** kept signals (complete-graph ids, excluding [output]) *)
  immediate : int list;  (** the trigger signals of [output] *)
  kept_extras : string list;  (** state signals retained in the module *)
  module_sg : Sg.t;  (** the modular state graph Σ_[o] *)
  cover : int array;  (** complete state → module state (paper's cover) *)
}

(** [triggers sg ~output] is the immediate input set: signals firing on
    an edge that enters a state where [output] is excited. *)
val triggers : Sg.t -> output:int -> int list

(** [determine sg ~output] runs the greedy derivation on the complete
    state graph [sg], which has no ε edges (as every graph {!Sg.of_stg}
    and {!Sg.quotient} return). *)
val determine : Sg.t -> output:int -> t

val pp : Sg.t -> Format.formatter -> t -> unit
