(** Dinkelbach iteration for the fractional program
    [α* = min_S w(Γ(S)) / w(S)].

    Given an oracle computing [h(α) = min_S (w(Γ(S)) − α·w(S))] together
    with the {e maximal} minimiser, iterate [α ← α(S)] until [h(α) = 0];
    the maximal minimiser at that point is the maximal bottleneck.  Each
    step strictly decreases α through the finite set of achievable ratios,
    so the iteration terminates. *)

val solve_poly :
  ?budget:Budget.t ->
  oracle:(alpha:Rational.t -> Rational.t * 'set) ->
  alpha_of:('set -> Rational.t) ->
  Rational.t ->
  'set * Rational.t
(** The iteration, polymorphic in the minimiser-set representation so
    allocation-lean callers (the chain decomposition driver) can carry
    flat member arrays instead of [Vset.t].  Counters, the
    [solver.dinkelbach.iter] failpoint, the fuel guard and budget
    ticking are identical to {!solve}, which is this function at
    [Vset.t]. *)

val solve :
  ?budget:Budget.t ->
  oracle:(alpha:Rational.t -> Rational.t * Vset.t) ->
  alpha_of:(Vset.t -> Rational.t) ->
  Rational.t ->
  Vset.t * Rational.t
(** [solve ~oracle ~alpha_of init] is the pair of the maximal bottleneck
    and its ratio α*.
    [oracle ~alpha] must return [(h(α), maximal minimiser of the cost)];
    [alpha_of s] must be the exact α-ratio of [s].
    [budget] is ticked once per iteration.
    @raise Ringshare_error.Error ([Oracle_inconsistent]) if the oracle
    reports [h > 0] (broken oracle) or fails to make progress.
    @raise Budget.Exhausted when the budget trips. *)
