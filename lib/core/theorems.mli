(** Machine-checkable statements of the paper's propositions, lemmas and
    theorems, evaluated on concrete instances.

    Each checker returns [Ok ()] or a description of the violated clause;
    the test-suite and the experiment harness run them over instance
    families.  A single [Error] on a valid instance would falsify the
    reproduction. *)

val proposition3 : ?ctx:Engine.Ctx.t -> Graph.t -> (unit, string) result
(** Structure of the bottleneck decomposition (delegates to
    {!Decompose.validate}). *)

val proposition6 : ?ctx:Engine.Ctx.t -> Graph.t -> (unit, string) result
(** BD allocation feasibility + closed-form utilities
    ({!Allocation.validate}) and the fixed-point property of the exact
    dynamics. *)

val theorem10 :
  ?ctx:Engine.Ctx.t -> ?samples:int -> Graph.t -> v:int ->
  (unit, string) result
(** Monotone non-decreasing [U_v(x)] on a sample grid. *)

val proposition11 :
  ?ctx:Engine.Ctx.t -> ?samples:int -> Graph.t -> v:int ->
  (Misreport.shape, string) result
(** The α_v(x) curve matches one of the three shapes. *)

val proposition12 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (unit, string) result
(** Across the exact pieces of [v]'s reported weight
    ({!Breakpoints.exact_pieces}, point pieces included), [v]'s class
    side forms a C-phase followed by a B-phase (Propositions 11 and
    12(1)).
    @raise Invalid_argument when some vertex has degree > 2. *)

val lemma13 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (unit, string) result
(** Within a constant-class phase of the reported weight, pairs on the
    safe side of [α_v] (smaller for C class, larger for B class) persist
    untouched — checked across every pair of intervals of the exact
    interval structure ({!Trace.compute}).
    @raise Invalid_argument when some vertex has degree > 2. *)

val corollaries17_23 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (unit, string) result
(** After the first stage of the best deviation found, the identities sit
    in different pairs, ordered by α-ratio as Corollary 17 (C class) or
    Corollary 23 (B class) states. *)

val lemma9 : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (unit, string) result
(** Splitting at the honest allocation amounts preserves the utility. *)

val lemma14_20 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int ->
  (Stages.initial_form, string) result
(** The honest path's decomposition falls in the lemmas' case lists, and
    the case agrees with [v]'s class on the ring. *)

val lemmas15_21 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (unit, string) result
(** When both identities share a pair side on the honest path, a small
    stage-1 move splits the pair with the stated α-ordering (Lemma 15 for
    Case C-3, Lemma 21 for Case D-1); vacuous otherwise. *)

val theorem8 :
  ?ctx:Engine.Ctx.t -> Graph.t -> (Incentive.attack, string) result
(** Searches the best Sybil attack on every vertex and checks
    [ζ ≤ 2]. *)

val stage_lemmas :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (Stages.report, string) result
(** Runs the full stage analysis against the best attack found for [v] and
    checks every per-stage lemma condition. *)
