(** Isolating the points where the bottleneck decomposition changes as one
    weight varies (paper, Section III.B: the subinterval structure
    [⟨a_i, b_i⟩] and Proposition 12's merge/split events).

    The decomposition is piecewise constant in the reported weight [x]; a
    grid scan finds candidate intervals and exact-rational bisection
    narrows each change to a bracket [(lo, hi)] with
    [decomposition(lo) ≠ decomposition(hi)] and [hi − lo ≤ tolerance]. *)

type event = {
  lo : Rational.t;
  hi : Rational.t;  (** bracket around the change point *)
  before : Decompose.t;  (** decomposition at [lo] *)
  after : Decompose.t;  (** decomposition at [hi] *)
}

val decomposition_at :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> x:Rational.t -> Decompose.t

val scan :
  ?ctx:Engine.Ctx.t -> ?tolerance:Rational.t -> Graph.t -> v:int ->
  event list
(** Change events over [x ∈ [0, w_v]], in increasing order.  The grid
    width comes from [ctx.grid] ({!Engine.Ctx.default_grid} when the
    context is absent); [tolerance] defaults to [w_v / 2^20].  A grid cell
    hiding an even number of changes that restore the same decomposition
    is reported as zero events (the scan sees equal endpoints); increase
    [grid] to separate suspected events. *)

val scan_split :
  ?ctx:Engine.Ctx.t -> ?tolerance:Rational.t -> Graph.t -> v:int ->
  event list
(** Like {!scan}, but the parameter is the Sybil split weight: events in
    the decomposition of the path [P_v(w1, w_v − w1)] as [w1] sweeps
    [[0, w_v]].  Vertex ids in the events follow {!Sybil.split}
    ([v¹ = v], [v² = n]). *)

(** {1 Exact split-parameter events}

    The split path's decomposition is piecewise constant in [w1], and on
    each piece every pair weight is {e affine} in [w1] (DESIGN §16).  A
    structure observed at a rational sample therefore stays the
    decomposition exactly while finitely many degree-≤2 polynomials keep
    their sign: the structure's own shape conditions (pair weights,
    [α_i = 1], adjacent-α crossings) {e plus} the comparison differences
    of the greedy stage solves themselves — each stage's 4-state cost DP
    and its forced-vertex maximality probes (the [Chain_fast] DP kernel)
    replayed with costs as quadratics in [w1].  While none of those differences
    changes sign every stage re-derives the same pair, which makes the
    family complete: shape conditions alone would miss a pair splitting
    when a proper subset's ratio crosses [α_i].  Piece boundaries are
    roots of the candidates — quadratic irrationals, representable
    exactly as {!Qx.t}.  Unlike {!scan_split}, this enumeration has no
    grid: a cell hiding an even number of cancelling changes cannot fool
    it, and the work is proportional to the number of events. *)

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

val exact_split_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_piece list
(** Maximal structure-constant pieces of the split parameter over
    [[0, w_v]], in increasing order, tiling the interval.  A
    non-degenerate piece's structure holds on its open interior and at
    its [sample]; a {e rational} boundary point (including [0] and
    [w_v]) whose decomposition differs from its neighbours appears as a
    degenerate piece with [xlo = xhi].  (At an irrational boundary the
    at-point decomposition is not materialised: it cannot be sampled in
    ℚ — and, by the same token, no rational scan can observe it.)
    Budget is ticked once per sampled point (cost [1 + n]);
    decompositions use [ctx]'s solver and cache.  Empty when
    [w_v = 0]. *)

val exact_slice_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v1:int -> v2:int -> total:Rational.t ->
  exact_piece list
(** The same exact piece enumeration, but over a generic two-vertex
    weight {e slice} of an arbitrary acyclic degree-≤2 graph: the
    parameter [x ∈ [0, total]] sets [v1]'s weight to [x] and [v2]'s to
    [total − x] while every other weight stays fixed.
    [exact_split_pieces g ~v] is the instantiation where the graph is
    the opened ring and [(v1, v2) = (v, n)]; the k-identity coordinate
    descent ([Incentive.best_attack] with [ctx.identities ≥ 3]) uses
    this directly on the materialised {!Sybil.ksplit} path, pairing one
    free identity with the last.
    @raise Invalid_argument when [v1]/[v2] are out of range or equal,
    [total < 0], some vertex has degree > 2, or a component is a cycle
    (the parametric stage DP is the path DP). *)

val exact_split_events :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_event list
(** Boundaries between consecutive pieces of {!exact_split_pieces} whose
    structures differ, in increasing order of location. *)

val classify_event : event -> v:int -> [ `Merge | `Split | `Other ]
(** Proposition 12 view of an event, relative to the pair containing [v]:
    [`Split] — [v]'s pair at [lo] breaks in two at [hi];
    [`Merge] — two pairs at [lo] combine into [v]'s pair at [hi];
    [`Other] — any other reshaping (changes far from [v]'s pair). *)

(** Hooks for the differential test of the stage replay's two scalar
    instances (DESIGN §16, "Native-int replay"). *)
module For_testing : sig
  val int_replay_bound : int
  (** The largest scaled weight sum T = D·Σw at which a sample's stage
      replay runs on native ints. *)

  val split_candidates :
    bigint:bool -> Graph.t -> v:int -> p:Rational.t ->
    (Bigint.t * Bigint.t * Bigint.t) list
  (** The candidate family (distinct primitive triples in y = D·x) that
      certifies the piece of {!exact_split_pieces} around the sample
      [w1 = p]; [bigint] forces the Bigint replay. *)

  val exact_split_pieces_bigint :
    ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_piece list
  (** {!exact_split_pieces} with every sample replayed on Bigint. *)
end
