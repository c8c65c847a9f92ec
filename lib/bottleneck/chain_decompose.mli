(** Whole-decomposition driver for chain graphs (every vertex of degree
    ≤ 2): per-component Dinkelbach over a min-heap of component ratios
    instead of the generic loop's whole-mask oracle, with the component
    DP running on reusable flat int buffers (weights scaled to a common
    denominator) and, when the weights don't fit, a fallback that scales
    the component once to {!Bigint} weights for the {!Chain_fast} kernel.
    Both start each fragment's solve from its parent's α.  Produces bit-identical pairs to the generic fast-chain loop —
    both are pure functions of the residual mask — in roughly
    O(n log n) instead of O(n²); independent component solves shard
    across [ctx.domains] when a batch is large enough.

    {!Decompose.compute} routes fast-chain solves on chain graphs here;
    the generic loop stays reachable via [Decompose.For_testing] for
    the differential battery. *)

val compute :
  ctx:Engine.Ctx.t ->
  on_pair:(unit -> unit) ->
  Graph.t ->
  (Vset.t * Vset.t * Rational.t) list
(** [(B, C, α)] triples in extraction order, with [α = w(C)/w(B)]
    computed from the driver's scaled integer sums (exactly equal —
    same canonical rational — to re-dividing the rational weight sums,
    including the degenerate zero-weight-B conventions of
    [Decompose.pair_alpha]).  [on_pair] runs once per pair before it is
    computed (the caller's budget/counter hook); per-oracle-call budget
    ticks of [1 + component size] are charged to [ctx]'s budget
    directly.
    @raise Invalid_argument if some vertex has degree > 2.
    @raise Budget.Exhausted when [ctx]'s budget trips. *)
