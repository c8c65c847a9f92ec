(** Incentive ratio of the BD Allocation Mechanism against Sybil attacks
    (paper, Definition 7).

    [ζ_v = max over splits of U'_v / U_v], and [ζ = max_v ζ_v].  The split
    utility is a piecewise algebraic function of [w_{v¹}] whose optimum may
    be irrational.  Two sweep policies live behind {!Engine.Ctx.t}'s
    [sweep] field: the historical {e grid} search (exact-arithmetic grid
    sweep with recursive zoom refinement — every reported value is an
    exact {e certified lower bound} of the supremum), and the {e exact}
    event-driven sweep ({!best_split_exact}), which walks the
    decomposition's breakpoints ({!Breakpoints.exact_split_pieces}) and
    maximises the closed-form utility of each piece, returning the
    supremum itself as a quadratic surd ({!Qx.t}) with no resolution
    knobs.  Theorem 8 promises the supremum never exceeds 2. *)

type attack = {
  v : int;  (** the manipulative agent *)
  w1 : Rational.t;  (** best identity-1 weight found *)
  utility : Rational.t;  (** [U'_v] at that split *)
  honest : Rational.t;  (** [U_v] without deviation *)
  ratio : Rational.t;  (** [U'_v / U_v] *)
}

type exact_attack = {
  witness : attack;
      (** rational witness: the optimum itself when it is rational (then
          [witness.utility] equals [utility_exact]), otherwise the better
          of the two dyadic rationals (denominator 2⁴⁰) bracketing it *)
  w1_exact : Qx.t;  (** certified optimal identity-1 weight *)
  utility_exact : Qx.t;  (** the supremum [sup U'_v], exactly *)
  ratio_exact : Qx.t;  (** [ζ_v], exactly *)
  pieces : int;  (** structure-constant pieces of the split parameter *)
  events : int;  (** decomposition-change events among them *)
}

val best_split :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?honest:Rational.t -> Graph.t ->
  v:int -> attack
(** Sweep [w_{v¹}] over a [ctx.grid]-point subdivision of [[0, w_v]] (plus
    the honest point [w₁⁰]), then zoom [ctx.refine] times around the best
    point.  Solver choice, grid/refine, domains and cache policy come from
    [ctx] ({!Engine.Ctx.default} when absent); an explicit [budget]
    overrides the context's.

    Candidate points are deduplicated (clamped extras collide with grid
    points, and each zoom window re-visits its centre) and memoised in a
    per-search cache keyed by [w1], so each distinct split is decomposed —
    and budget-ticked, proportionally to the graph size — exactly once
    per search.  That memo lives for one [best_split] call.  Split
    searches run cache-free: a context's {!Engine.Cache} is dropped
    here, because keying each split graph costs more than decomposing
    it; the attack entry points below cache whole results instead.

    [ctx.domains > 1] evaluates the fresh points of each sweep round in
    parallel over that many OCaml 5 domains; the result is identical to
    the sequential search.  [honest] supplies an externally computed
    honest utility [U_v] (e.g. shared across vertices by {!best_attack});
    when absent it is computed from the graph.

    With [ctx.sweep = Exact] this delegates to {!best_split_exact} and
    returns its rational witness; the grid/refine knobs are ignored. *)

val best_split_exact :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?honest:Rational.t -> Graph.t ->
  v:int -> exact_attack
(** The certified optimum of the split sweep: enumerate the
    structure-constant pieces of [w_{v¹}] exactly
    ({!Breakpoints.exact_split_pieces}), maximise each piece's
    closed-form utility [N/D] ({!Symbolic.slice_utility_function}) over its
    closed interval — endpoints plus the roots of the degree-≤2
    derivative numerator [N'·D − N·D'] — and return the best point.  The
    result is the true supremum: [ratio_exact] is at least the [ratio]
    of {!best_split} at {e any} grid/refine setting.  The first
    candidate of a utility tie, walking pieces left to right, wins.

    Budget is ticked per sampled piece and per mechanism evaluation (the
    work is proportional to the number of events, not to a resolution);
    like {!best_split} it runs cache-free.  Counters
    (subsystem ["incentive"]): [exact_sweep_calls], [exact_pieces],
    [exact_events], [exact_criticals], [exact_evals]. *)

val best_attack :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> attack
(** [ζ] estimate: best over all vertices.  [ctx.domains > 1] spreads the
    per-vertex searches over that many OCaml 5 domains (the result is
    identical to the sequential search; each per-vertex [best_split] runs
    sequentially on its worker).  A shared budget meters all domains; its
    [Exhausted] is re-raised after they join.  The honest decomposition
    of the unmodified ring is computed once and shared by every
    per-vertex search.

    With a context {!Engine.Cache} the whole result is one cache entry,
    keyed by the sweep, grid/refine, identity count and solver name
    followed by {!Serial.digest} of the graph; the search itself runs
    cache-free.

    With [ctx.sweep = Exact] this delegates to {!best_attack_exact} and
    returns its rational witness. *)

val best_attack_exact :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> exact_attack
(** [ζ] exactly: {!best_split_exact} over all vertices, the winner
    selected by [ratio_exact] (first vertex of a tie wins).  Shares the
    honest decomposition, fans per-vertex searches over
    [ctx.domains] and uses a context {!Engine.Cache} once per request,
    exactly like the grid {!best_attack}. *)

(** {1 k-identity split vectors}

    [ctx.identities] generalises the pairwise split to a length-[k]
    weight vector ({!Sybil.splits}).  At the default [k = 2] every
    entry point below delegates to the historical 2-split search —
    bit-identical in both sweep modes — and wraps the result; at
    [k ≥ 3] the grid sweep walks the [(k−1)]-simplex (per-coordinate
    grid-with-zoom over a shared weight-vector memo) and the exact
    sweep runs coordinate descent over certified 1-D slices
    ({!Breakpoints.exact_slice_pieces}), terminating at a point no
    coordinate line can improve.  Counters (subsystem ["incentive"]):
    [kway_points], [kway_rounds], [kway_exact_events] and the memo
    triple [kway_memo_lookups] = [kway_memo_hits] +
    [kway_memo_misses]. *)

type kattack = {
  v : int;  (** the manipulative agent *)
  weights : Rational.t array;
      (** best identity weight vector found, length [ctx.identities],
          summing to [w_v] *)
  utility : Rational.t;  (** [Σ_j U_{v^j}] at that split *)
  honest : Rational.t;  (** [U_v] without deviation *)
  ratio : Rational.t;  (** utility / honest *)
}

val best_splitk :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?honest:Rational.t -> Graph.t ->
  v:int -> kattack
(** The [k]-identity generalisation of {!best_split}, parameterised by
    [ctx.identities].  At [k = 2] this {e is} {!best_split} (same code
    path, both sweep modes) with the pair wrapped as [[|w1; w_v − w1|]].
    At [k ≥ 3], [Grid] sweeps the simplex lattice ([ctx.grid] points
    per free coordinate, [ctx.refine] zoom rounds; the first vector of
    a utility tie in enumeration order wins) and [Exact] runs the
    slice-wise coordinate descent.  Either way every reported utility
    is an exactly-evaluated mechanism value and each distinct weight
    vector is evaluated — and budget-ticked at cost [1 + n] — once per
    search. *)

val best_attack_k :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> kattack
(** Best {!best_splitk} over all vertices (first vertex of a ratio tie
    wins), sharing the honest decomposition and fanning per-vertex
    searches over [ctx.domains] and using a context {!Engine.Cache}
    once per request exactly like {!best_attack}.  At
    [ctx.identities = 2] this delegates to {!best_attack} and wraps the
    result. *)

type progress = {
  best : attack option;
      (** best attack over the vertices finished so far; [None] when
          [ctx.identities ≥ 3] (see [best_k]) *)
  best_exact : exact_attack option;
      (** certified optimum so far under [ctx.sweep = Exact] (its
          [witness] is [best]); [None] under [Grid] or when
          [ctx.identities ≥ 3] *)
  best_k : kattack option;
      (** best k-way attack so far when [ctx.identities ≥ 3]; [None] at
          the default two identities *)
  completed : int;  (** vertices fully searched *)
  total : int;
  status : (unit, Ringshare_error.t) result;
      (** [Ok ()] when every vertex was searched; [Error (Budget_exhausted _)]
          (or another structured error) when the scan stopped early. *)
}

val best_attack_within :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?checkpoint:string ->
  ?resume:bool -> Graph.t -> progress
(** Sequential, fault-tolerant variant of {!best_attack}: vertices are
    searched in order, the best-so-far is returned even when the budget
    trips mid-scan, and an optional [checkpoint] file is atomically
    rewritten after every vertex.  With [resume:true] the scan continues
    from the snapshot (validated against a digest of the graph, the
    sweep policy {e and} the identity count it was written under —
    pre-exact checkpoints count as grid, pre-k-way ones as two
    identities; a cross-[k] resume is rejected as [Invalid_input]); a
    missing checkpoint file means start from scratch.
    With [ctx.identities ≥ 3] the per-vertex searches are {!best_splitk}
    and the best-so-far rides in the checkpoint as a serialised weight
    vector, surfacing as [progress.best_k].
    Killing the process and resuming reproduces the uninterrupted result
    exactly — under [Exact] the certified optimum rides in the
    checkpoint as {!Qx} strings, so the resumed [best_exact] is
    bit-identical too.
    [ctx.domains > 1] parallelises each vertex's sweep {e inside}
    {!best_split} (bit-identical to the sequential sweep), so the
    checkpoint stream — one snapshot per vertex, in order — is unchanged
    by parallelism.  The scan is not one request, so it ignores a
    context {!Engine.Cache}. *)

val ratio_of_attack : attack -> float
(** Convenience float view. *)
