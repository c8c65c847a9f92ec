(** Maximal-bottleneck solver for chain graphs (max degree ≤ 2).

    Every graph this paper manipulates is a ring, a Sybil path, or an
    induced subgraph of one — all disjoint unions of paths and cycles.  On
    such graphs [h(α) = min_S (w(Γ(S)) − α·w(S))] is a 4-state dynamic
    program per component (state: a vertex's S-membership and whether its
    Γ-membership has already been charged), and vertex [u] belongs to the
    maximal minimiser iff forcing [u ∈ S] still achieves the component
    minimum (minimisers are closed under union).

    The DP is written once, over a cost algebra ({!Make}).  One forward
    table and one suffix table give every forced-vertex minimum as an O(1)
    combine, so a whole oracle call is O(n).  Cycles condition on the
    memberships of the two vertices at the cut (4 table pairs instead of
    1).  The exact oracle below is one instance, over {!Bigint} costs at
    an integer scale; the parametric stage replay of [Breakpoints] is
    another, with costs that are quadratics in the split weight. *)

(** {1 Components} *)

type component = { verts : int array; cycle : bool }
(** A connected component of the masked subgraph, vertices in walk order
    (endpoint-to-endpoint for paths, arbitrary starting point for
    cycles). *)

val components : Graph.t -> mask:Vset.t -> component list

(** {1 The DP kernel} *)

module type COST = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t

  val better : t option -> t option -> t option
  (** The smaller of two candidates, [None] standing for "unreachable".
      Keeps the first argument on a tie.  Every comparison the DP makes
      goes through here, so an instance can record them. *)
end

module Make (C : COST) : sig
  val solve :
    cycle:bool -> gam:(int -> C.t) -> sch:(int -> C.t) -> int ->
    C.t * C.t option array
  (** [solve ~cycle ~gam ~sch k] over a component of [k] positions in
      walk order, where [gam i] is what position [i] costs when it is in
      Γ(S) and [sch i] what it earns when it is in S.  Returns the
      component minimum of [Σ_{Γ(S)} gam − Σ_S sch] over all S, the empty
      set included, and for each position the minimum with that
      position forced into S.  Needs [k ≥ 1], and [k ≥ 3] for a
      cycle. *)
end

(** {1 The exact oracle}

    Costs are exact integers at scale [q·D] for [α = p/q]: [D] is the lcm
    of the component's weight denominators and [W_i = D·w_i], so a
    Γ-charge is [q·W_i] and an S-term [p·W_i].  The scale is positive, so
    minima, minimisers and tie-breaks are those of the rational costs,
    and every DP cell is a {!Bigint} add or compare with no gcd. *)

val scale : Rational.t array -> Bigint.t * Bigint.t array
(** [scale ws] is [(D, W)] with [D] the lcm of the denominators of [ws]
    and [W_i = D·w_i].
    @raise Invalid_argument on an infinite weight. *)

val solve_scaled :
  cycle:bool -> Bigint.t array -> alpha:Rational.t ->
  Bigint.t * Bigint.t option array
(** [solve_scaled ~cycle w ~alpha] runs the DP over a component with
    scaled weights [w] (walk order, as from {!scale}) at a finite
    [alpha]: the component minimum, the empty set included, and each
    position's forced-membership minimum ({!Make.solve}), all at scale
    [q·D].  Callers that solve one component at many [α] scale it
    once. *)

val h_and_argmax :
  ?budget:Budget.t -> Graph.t -> mask:Vset.t -> alpha:Rational.t ->
  Rational.t * Vset.t
(** [h(α)] and the maximal minimiser of the cost, over the masked induced
    subgraph.  [budget] is ticked once per component, by its size plus one.
    @raise Invalid_argument if a masked vertex has in-mask degree > 2. *)

val maximal_bottleneck : ?budget:Budget.t -> Graph.t -> mask:Vset.t -> Vset.t
(** Dinkelbach iteration over this oracle.  [budget] is ticked per
    iteration and per component sweep.
    @raise Invalid_argument if the mask is empty.
    @raise Budget.Exhausted when the budget trips. *)
