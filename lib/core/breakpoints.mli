(** The points where the bottleneck decomposition changes as one weight
    varies (paper, Section III.B: the subinterval structure
    [⟨a_i, b_i⟩] and Proposition 12's merge/split events), enumerated
    exactly.

    Two parameters are served, both over [[0, w_v]]: agent [v]'s
    reported weight [x] ({!exact_pieces}), and the Sybil split weight
    [w1] of the path [P_v(w1, w_v − w1)] ({!exact_split_pieces}, with
    the two-vertex slice {!exact_slice_pieces} as its generalisation).
    The decomposition is piecewise constant in the parameter, and on
    each piece every pair weight is {e affine} in it (DESIGN §16).  A
    structure observed at a rational sample therefore stays the
    decomposition exactly while finitely many degree-≤2 polynomials keep
    their sign: the structure's own shape conditions (pair weights,
    [α_i = 1], adjacent-α crossings) {e plus} the comparison differences
    of the greedy stage solves themselves — each stage's 4-state cost DP
    (path or cycle) and its forced-vertex maximality probes (the
    [Chain_fast] DP kernel) replayed with costs as quadratics in the
    parameter.  While none of those differences changes sign every stage
    re-derives the same pair, which makes the family complete: shape
    conditions alone would miss a pair splitting when a proper subset's
    ratio crosses [α_i].  Piece boundaries are roots of the candidates —
    quadratic irrationals, representable exactly as {!Qx.t}.  There is
    no grid: a stretch hiding an even number of cancelling changes
    cannot fool the enumeration, and the work is proportional to the
    number of events. *)

type exact_piece = {
  xlo : Qx.t;  (** piece lower boundary (exact) *)
  xhi : Qx.t;  (** piece upper boundary (exact) *)
  sample : Rational.t;  (** rational witness with [xlo ≤ sample ≤ xhi] *)
  structure : Decompose.t;  (** the decomposition throughout the piece *)
}

type exact_event = {
  at : Qx.t;  (** exact event location *)
  left : Decompose.t;  (** structure just below [at] *)
  right : Decompose.t;  (** structure just above [at] *)
}

val exact_pieces : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_piece list
(** Maximal structure-constant pieces of [v]'s reported weight [x] over
    [[0, w_v]] (every other weight fixed), in increasing order, tiling
    the interval.  A non-degenerate piece's structure holds on its open
    interior and at its [sample]; a {e rational} boundary point
    (including [0] and [w_v]) whose decomposition differs from its
    neighbours appears as a degenerate piece with [xlo = xhi].  (At an
    irrational boundary the at-point decomposition is not materialised:
    it cannot be sampled in ℚ.)  Budget is ticked once per sampled point
    (cost [1 + n]); decompositions use [ctx]'s solver and cache.  Empty
    when [w_v = 0].
    @raise Invalid_argument when [v] is out of range or some vertex has
    degree > 2 (the interval structure is an analysis of rings, and the
    exact replay needs the chain DP). *)

val exact_split_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_piece list
(** The same enumeration over the split parameter [w1 ∈ [0, w_v]]: the
    pieces of the decomposition of [P_v(w1, w_v − w1)].  Vertex ids in
    the structures follow {!Sybil.split} ([v¹ = v], [v² = n]). *)

val exact_slice_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v1:int -> v2:int -> total:Rational.t ->
  exact_piece list
(** The same enumeration over a generic two-vertex weight {e slice} of
    a degree-≤2 graph: the parameter [x ∈ [0, total]] sets [v1]'s weight
    to [x] and [v2]'s to [total − x] while every other weight stays
    fixed.  [exact_split_pieces g ~v] is the instantiation where the
    graph is the opened ring and [(v1, v2) = (v, n)]; the k-identity
    coordinate descent ([Incentive.best_attack] with
    [ctx.identities ≥ 3]) uses this directly on the materialised
    {!Sybil.ksplit} path, pairing one free identity with the last.
    @raise Invalid_argument when [v1]/[v2] are out of range or equal,
    [total < 0], or some vertex has degree > 2. *)

val events : exact_piece list -> exact_event list
(** Boundaries between consecutive pieces whose structures differ, in
    increasing order of location; its length is the number of structure
    changes. *)

val classify_event : exact_event -> v:int -> [ `Merge | `Split | `Other ]
(** Proposition 12 view of an event, relative to the pair containing [v]:
    [`Split] — [v]'s pair on the left breaks in two on the right;
    [`Merge] — two pairs on the left combine into [v]'s pair on the
    right; [`Other] — any other reshaping (changes far from [v]'s
    pair). *)

(** Hooks for the differential test of the stage replay's two scalar
    instances (DESIGN §16, "Native-int replay"). *)
module For_testing : sig
  val int_replay_bound : int
  (** The largest scaled bound T = D·(Σ fixed weights + total) at which
      a sample's stage replay runs on native ints. *)

  val candidates :
    bigint:bool -> [ `Split | `Weight ] -> Graph.t -> v:int ->
    p:Rational.t -> (Bigint.t * Bigint.t * Bigint.t) list
  (** The candidate family (distinct primitive triples in y = D·x) that
      certifies the piece around the sample [p] of the split parameter
      ([`Split], {!exact_split_pieces}) or of [v]'s reported weight
      ([`Weight], {!exact_pieces}); [bigint] forces the Bigint
      replay. *)

  val pieces_bigint :
    ?ctx:Engine.Ctx.t -> [ `Split | `Weight ] -> Graph.t -> v:int ->
    exact_piece list
  (** {!exact_split_pieces} or {!exact_pieces} with every sample replayed
      on Bigint. *)
end
