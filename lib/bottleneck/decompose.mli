(** Bottleneck decomposition (paper, Definition 2).

    Repeatedly extract the maximal bottleneck [B_i] of the remaining
    induced subgraph and its neighbour set [C_i = Γ(B_i) ∩ V_i], until no
    vertex remains.  The result is the unique sequence
    [(B_1,C_1), …, (B_k,C_k)] with strictly increasing α-ratios
    (Proposition 3). *)

type solver = Engine.solver = FastChain | Flow | Brute | Auto
(** Re-export of {!Engine.solver} (so [Decompose.Auto] and [Engine.Auto]
    are the same constructor).  [FastChain] is the linear chain DP
    ({!Chain_fast}, run per component by {!Chain_decompose}); [Flow]
    and [Brute] run {!Flow_solver} and {!Brute} in the generic
    extraction loop; [Auto] resolves with one match to [FastChain] on
    max-degree ≤ 2 graphs and to [Flow] otherwise, counted by the
    [decomposition.auto_fastchain] and [auto_flow] counters. *)

type pair = {
  b : Vset.t;  (** the bottleneck [B_i] *)
  c : Vset.t;  (** its neighbourhood [C_i] in [G_i] *)
  alpha : Rational.t;  (** [α_i = w(C_i)/w(B_i)] *)
}

type t = pair list

type Engine.Cache.value += Decomposition of t
      (** How a decomposition lives in an {!Engine.Cache}: keyed by
          [<resolved solver name>:<MD5 of Serial.to_string>], so [Auto]
          shares entries with the backend it resolves to. *)

val compute : ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> t
(** Solver choice, budget and cache policy come from [ctx]
    ({!Engine.Ctx.default} when absent); an explicit [budget] overrides
    the context's.  With a context cache, a hit returns the stored
    decomposition without ticking the budget or incrementing
    [decomposition.computes].
    @raise Invalid_argument when every vertex has zero weight.
    @raise Budget.Exhausted when the budget trips (it is threaded into
    the underlying solver's Dinkelbach iterations and DP sweeps). *)

val compute_r :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t ->
  (t, Ringshare_error.t) result
(** {!compute} behind {!Ringshare_error.capture}: one bad instance in a
    sweep becomes an [Error] value instead of killing the run. *)

(** {2 Per-vertex lookups}

    The lookups below cost O(1) after one O(n) pass per decomposition,
    which builds an index beside the list: the pairs as an array and
    each vertex's pair position.  Each domain memoises the index of
    the last decomposition it looked up, matched by physical identity
    ([==]); a [t] is immutable, so the same list always has the same
    pairs.  Looking up in a different decomposition replaces the
    memoised index, so switching back rebuilds it. *)

val pair_index : t -> int -> int
(** Index (0-based) of the pair containing the vertex; the first such
    pair if a malformed list holds the vertex twice.
    @raise Not_found if absent (cannot happen for pairs from [compute]),
    including for a negative vertex id. *)

val pair_of : t -> int -> pair
val alpha_of : t -> int -> Rational.t
(** The vertex's α-ratio [α_v] (paper notation, Proposition 6). *)

val in_b : t -> int -> bool
(** Vertex lies in the B side of its pair ([B_k = C_k] counts as both). *)

val in_c : t -> int -> bool

val equal : t -> t -> bool
(** Same pairs with the same α-ratios, in order. *)

val same_structure : t -> t -> bool
(** Same pair {e sets} in order, ignoring α-ratios.  This is the paper's
    notion of "the decomposition does not change" when one weight varies
    (Section III.B): on a subinterval the partition into pairs is fixed
    while the α-ratios of the pairs containing the varying vertex move
    continuously. *)

val validate : Graph.t -> t -> (unit, string) result
(** Checks the Proposition 3 invariants plus partitioning:
    α strictly increasing and in (0, 1]; [B_i] independent and disjoint
    from [C_i] when [α_i < 1]; [B_i = C_i] when [α_i = 1] (last pair only);
    no B–B edges across pairs; B–C edges only towards earlier-or-equal
    pairs; the [B_i ∪ C_i] partition [V].  Zero-weight vertices may relax
    the positivity of α; the check accepts [α_1 = 0] only if [B_1] has
    zero-weight neighbourhood.  The partition check is one pass over
    the pairs, and the whole check is O((n + m) log n).  The first
    failing check decides the message; an overlap names the
    lexicographically first pair of pair indices [(i, j)], 0-based. *)

val pp : Format.formatter -> t -> unit

module For_testing : sig
  val compute_generic : ?ctx:Engine.Ctx.t -> Graph.t -> t
  (** The generic whole-mask extraction loop with the context's resolved
      backend, bypassing the {!Chain_decompose} routing (and any cache).
      The differential battery pins [compute] against this on chain
      graphs; production callers use {!compute}. *)
end
