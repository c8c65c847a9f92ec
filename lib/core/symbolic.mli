(** Symbolic per-instance verification of Theorem 8.

    Sampled attack searches certify lower bounds; this module certifies
    the {e upper} bound.  On every structure-constant piece of the split
    parameter [w1] ({!Breakpoints.exact_split_pieces}, exact {!Qx.t}
    bounds, no gaps between pieces), the attacker's utility is an
    explicit rational function

    [U(w1) = U_{v¹} + U_{v²} = N(w1) / D(w1)]

    with [deg N ≤ 3], [deg D ≤ 2] (each identity contributes [w1·α] or
    [w1/α] with [α] a ratio of weight sums that are {e linear} in [w1]),
    and [N′D − ND′] has degree ≤ 2 (DESIGN §16).  The exact maximum of
    [U] over each closed piece is therefore attained at an endpoint or
    at a root of that quadratic, and {!closed_form_candidates} lists
    them all.  The claim [U ≤ 2·U_v] on the piece is then one exact
    comparison of that maximum — a machine-checked proof of [ζ_v ≤ 2]
    over the whole of [[0, w_v]], not a sample-based estimate. *)

type interval = {
  lo : Qx.t;
  hi : Qx.t;  (** exact piece bounds; [lo = hi] for a point piece *)
  num : Poly.t;  (** N: utility numerator on the piece *)
  den : Poly.t;  (** D: utility denominator (positive inside) *)
  best_here : Qx.t;  (** the exact maximum of [U] over the closed piece *)
  bound_holds : bool;  (** [best_here ≤ 2·U_v] *)
}

type report = {
  v : int;
  honest : Rational.t;  (** U_v *)
  intervals : interval list;  (** the pieces, tiling [[0, w_v]] *)
  certified : bool;  (** every piece's bound holds *)
  best_found : Qx.t;  (** the exact maximum of [U] over [[0, w_v]] (at
                          least [U_v]) *)
}

val utility_function :
  Graph.t -> v:int -> structure:Decompose.t -> v2:int -> Poly.t * Poly.t
(** [(N, D)] such that the attacker's total utility equals [N(w1)/D(w1)]
    while the split path's decomposition structure stays [structure]
    ([v2] is the second identity's vertex id).  Exposed for tests. *)

val slice_utility_function :
  Graph.t -> v1:int -> v2:int -> total:Rational.t ->
  structure:Decompose.t -> ids:int array -> Poly.t * Poly.t
(** k-identity generalisation along a 1-D slice: [(N, D)] such that
    [Σ_j U_{ids.(j)} = N(x)/D(x)] while the decomposition stays
    [structure], where [v1] carries [x], [v2] carries [total − x] and
    every other vertex keeps its weight from the given graph.  The graph
    must be the {e materialised} split path ({!Sybil.ksplit.kpath}) so
    the fixed identities' weights are readable; at [k = 2] with
    [ids = [|v1; v2|]] this coincides with {!utility_function}. *)

val closed_form_candidates :
  num:Poly.t -> den:Poly.t -> lo:Qx.t -> hi:Qx.t ->
  (Qx.t * Qx.t option) list
(** The candidates for the maximum of [N/D] over the closed piece
    [[lo, hi]], in order: [lo], the roots of [N′D − ND′] strictly inside
    (in {!Qx.roots2} order), [hi]; each with [N/D] there, or [None]
    where [D] vanishes.
    @raise Invalid_argument when [N′D − ND′] has degree > 2. *)

val verify_theorem8 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (report, string) result
(** Enumerate the split pieces, build the per-piece rational functions,
    cross-check them against the mechanism at two interior rational
    points (exact equality), and bound every piece by its exact maximum.
    Point pieces are bounded by the mechanism's value at their point.
    [Error] means an internal consistency check failed — a bug, not a
    disproof. *)
