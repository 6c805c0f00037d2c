(** State-graph expansion: realising state signals as ordinary signals.

    Once a state signal has a consistent 4-valued assignment, it is made
    real by inserting its transitions into the state graph (paper §3.5):
    a state valued [Up] splits into a bit-0 and a bit-1 half joined by an
    [n+] edge (dually for [Dn]); stable states keep a single copy.  Edges
    are re-routed according to the legal value pairs, with concurrent
    diamonds for [Up→Up] / [Dn→Dn] edges (semi-modularity).  The final
    state counts reported in Table 1 come from this step. *)

(** [expand_one sg] realises the {e first} extra of [sg] as a new visible
    internal signal (appended after the existing signals) and returns the
    rewritten graph, whose extras are the remaining ones.
    @raise Invalid_argument if [sg] has no extras. *)
val expand_one : Sg.t -> Sg.t

(** [expand sg] realises all extras, first to last. *)
val expand : Sg.t -> Sg.t

(** {1 Implementability without expanding}

    [expand sg] is the synchronized product of [sg] with one two-state
    component per extra (Devillers' articulation of transition systems):
    an expanded state is a pair [(m, h)] where [h] picks half [A] or [B]
    of every extra, [B] only where that extra is excited at [m], and
    every such copy exists whether reachable or not.  Per extra, the code
    bit of a copy is [binary v xor (h = B)], an inserted transition is
    never disabled and disables nothing, and a base edge [m -> t] is
    disabled exactly in half [A] of an extra excited at [m] and stable at
    [t].  The functions below decide CSC and semi-modularity of the
    product one extra at a time on [sg] itself, with the extras as
    bitmasks, so their cost is that of [sg], not of its expansion.

    {b Exactness contract.}  On every [sg] with legal extras, each
    function below equals the check named in its comment run on
    [expand sg], reachable or not, including states with several
    out-edges carrying the same label.  Like [expand], each raises
    [Sg.Inconsistent] when [sg] has extras and more than 62 signals and
    extras together.  The materialized checks stay in the tests as the
    differential oracle. *)

(** [Csc.csc_satisfied (expand sg)]. *)
val csc_satisfied : Sg.t -> bool

(** [Persistency.is_semi_modular (expand sg)]. *)
val is_semi_modular : Sg.t -> bool

(** [List.length (Persistency.violations (expand sg))]: the violating
    copies of every (state, fired edge, disabled event) triple, counted
    by a DP over the extras. *)
val violation_count : Sg.t -> int

(** [csc_satisfied sg && is_semi_modular sg], indexing [sg] once. *)
val implementable : Sg.t -> bool
