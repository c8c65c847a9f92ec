(** Request-scoped execution engine (DESIGN.md §12).

    Every layer that reaches the bottleneck decomposition — the attack
    search, the theorem checkers, the breakpoint enumeration, the
    experiment harness, the CLI — used to re-declare its own
    [?solver ?grid ?refine ?budget ?domains] optional-argument spray with
    duplicated defaults.  This module replaces the spray with one
    immutable request context ({!Ctx.t}) carrying a single source of
    defaults, and a bounded, domain-safe result cache ({!Cache}) that a
    context owns and shares {e across} searches.

    The engine sits {e below} the solver libraries in the dependency
    order: {!solver} only names a backend ([Decompose] dispatches on it
    with one match), and the cache stores results through the
    extensible {!Cache.value} type, so no layer above is forced into a
    dependency cycle. *)

type solver = FastChain | Flow | Brute | Auto
(** Decomposition backend choice: [FastChain] the chain DP (max degree
    ≤ 2 only), [Flow] the generic max-flow solver, [Brute] subset
    enumeration, and [Auto] the chain DP on chain graphs and flow
    otherwise.  [Decompose.solver] re-exports this type, so
    [Decompose.Auto] and [Engine.Auto] are the same constructor. *)

val solver_name : solver -> string
(** ["fast-chain"], ["flow"], ["brute"] or ["auto"]; the name keys
    decomposition cache entries. *)

val solver_of_name : string -> solver option
(** Inverse of {!solver_name}; [None] on any other name (the CLI turns
    that into a spec error). *)

val solver_names : string list
(** Every selectable solver name, sorted:
    [["auto"; "brute"; "fast-chain"; "flow"]]. *)

type sweep = Grid | Exact
(** Split-sweep policy for the incentive attack search
    ([Incentive.best_split] and everything above it).  [Grid] is the
    historical grid-with-zoom approximation governed by [Ctx.grid] /
    [Ctx.refine]; [Exact] walks the decomposition's event boundaries
    exactly ([Breakpoints.exact_split_pieces], DESIGN §16) and maximises
    each closed-form utility piece, returning a certified optimum with no
    resolution knobs.  Grid stays registered as the differential oracle
    for the exact path. *)

val sweep_name : sweep -> string
(** ["grid"] or ["exact"]. *)

val sweep_of_name : string -> sweep option
(** Inverse of {!sweep_name}; [None] on unknown names (the CLI turns
    that into a spec error, as for {!solver_of_name}). *)

val sweep_names : unit -> string list
(** All selectable sweep names, sorted: [["exact"; "grid"]]. *)

(** {1 Decomposition cache} *)

module Cache : sig
  (** A bounded, mutex-sharded key/value cache shared across searches.

      Keys are canonical digests (the decomposition layer keys by
      resolved solver name plus a digest of the serialised graph; the
      attack search keys one whole result per request by the settings
      that change its answer plus that digest, and runs its inner
      decompositions cache-free).
      Values go through the extensible type {!value} so layers above the
      engine can store their own result types: the decomposition layer
      declares [type Engine.Cache.value += Decomposition of Decompose.t],
      and the attack search adds one constructor per result type.

      Domain-safety: each shard carries its own mutex, so concurrent
      [find]/[store] from {!Parwork} workers are safe.  Eviction is
      FIFO per shard — deterministic for a given insertion order (use
      [~shards:1] when the test needs one global order).

      Instrumented via [Obs] under the ["engine"] subsystem:
      [cache_lookups], [cache_hits], [cache_misses], [cache_stores],
      [cache_evictions] counters and the [cache_peak] gauge, with
      [cache_hits + cache_misses = cache_lookups] by construction. *)

  type value = ..
  (** Extensible so the cache can hold results of types defined above
      the engine in the dependency order. *)

  type t

  val create : ?shards:int -> capacity:int -> unit -> t
  (** [shards] defaults to 8; [capacity] is the total bound across
      shards (each shard holds at most [max 1 (capacity / shards)]
      entries).
      @raise Invalid_argument when [capacity < 1] or [shards < 1]. *)

  val find : t -> string -> value option
  val store : t -> string -> value -> unit
  (** Storing under an existing key replaces the value in place (the
      key keeps its original eviction slot). *)

  val length : t -> int
  val capacity : t -> int
  val clear : t -> unit
end

(** {1 Request context} *)

module Ctx : sig
  type t = {
    solver : solver;  (** decomposition backend ([Auto]) *)
    sweep : sweep;  (** split-sweep policy for attack searches ([Grid]) *)
    grid : int;  (** sweep subdivision for attack searches (32) *)
    refine : int;  (** zoom refinement rounds (3) *)
    budget : Budget.t option;  (** cooperative compute budget (none) *)
    deadline : float option;
        (** per-request wall-clock allowance in seconds (none); turned
            into a running {!Budget.t} by {!arm} at request entry, so it
            is enforced at budget-tick granularity *)
    domains : int;  (** OCaml 5 domains for parallel sweeps (1) *)
    obs : bool;  (** request-level metrics enablement (true) *)
    cache : Cache.t option;  (** shared decomposition cache (none) *)
    identities : int;
        (** number of Sybil identities [k ≥ 2] the attack search sweeps
            over (2 — the paper's pairwise split).  Threaded through
            [Incentive], checkpoints (recorded; cross-[k] resume is
            rejected) and the CLI [--identities] flag. *)
  }
  (** An immutable request context.  [Ctx.default] is the single source
      of the defaults above; every [?ctx] entry point in the stack reads
      its configuration from here instead of a private optional-argument
      default. *)

  val default : t

  val default_grid : int
  (** 32 — pinned by [test_engine.ml] against the documented value. *)

  val default_refine : int
  (** 3 — pinned by [test_engine.ml] against the documented value. *)

  val default_identities : int
  (** 2 — the paper's pairwise split; pinned by [test_engine.ml]. *)

  val make :
    ?solver:solver -> ?sweep:sweep -> ?grid:int -> ?refine:int ->
    ?budget:Budget.t -> ?deadline:float -> ?domains:int -> ?obs:bool ->
    ?cache:Cache.t -> ?identities:int -> unit -> t
  (** {!default} with the given fields overridden.  This is the one
      sanctioned home of the old optional-argument spray; the
      [config-drift] lint rule forbids re-declaring these optional
      arguments anywhere in [lib/] outside [lib/engine].
      @raise Invalid_argument when [identities < 2]. *)

  val with_solver : solver -> t -> t
  val with_sweep : sweep -> t -> t
  val with_grid : int -> t -> t
  val with_refine : int -> t -> t
  val with_budget : Budget.t -> t -> t
  val without_budget : t -> t
  val with_deadline : float -> t -> t
  val without_deadline : t -> t
  val with_domains : int -> t -> t

  val with_identities : int -> t -> t
  (** @raise Invalid_argument when the argument is [< 2]. *)

  val with_obs : bool -> t -> t
  val with_cache : Cache.t -> t -> t
  val without_cache : t -> t

  val get : t option -> t
  (** [Option.value ~default] — the idiom at every [?ctx] entry point. *)

  val budget_or_unlimited : t -> Budget.t

  val arm : t -> t
  (** Materialise [deadline] into a running budget: when [deadline] is
      set and [budget] is not, returns the context with
      [budget = Some (Budget.create ~seconds:deadline ())] — the clock
      starts now.  With an explicit budget (or no deadline) this is the
      identity.  Every request entry point ([Incentive.best_split],
      [Incentive.best_attack], [Decompose.compute], each
      {!run_batch_r} item) arms its context, so a deadline set on a
      long-lived context yields a fresh allowance per request rather
      than one shared countdown. *)

  val obs_enabled : t -> bool
  (** [ctx.obs && Obs.metrics_enabled ()]: layers consult this instead of
      the global switch so a context can opt a request out of metric
      recording. *)
end

(** {1 Batch execution} *)

val run_batch : ?ctx:Ctx.t -> f:(Ctx.t -> 'a -> 'b) -> 'a array -> 'b array
(** Map [f] over the instances with {!Parwork} on [ctx.domains] domains.
    Each item receives the context with [domains = 1] (parallelism lives
    at the batch level; nested domain fan-out would oversubscribe), and
    the shared [ctx.cache] — so a repeated instance hits the cache
    anywhere in the batch.  The first exception any item raises is
    re-raised after all domains join. *)

val run_batch_r :
  ?ctx:Ctx.t -> f:(Ctx.t -> 'a -> 'b) -> 'a array ->
  ('b, Ringshare_error.t) result array
(** Fault-tolerant variant: each item's failure becomes its [Error] slot
    (via [Ringshare_error.capture]) and every other item still runs —
    one bad instance cannot kill a batch.  Items that fail with a
    transient taxonomy error ([Ringshare_error.is_transient]) are
    retried in place by [Retry.with_retry] (bounded attempts, backoff
    charged to the item's budget) before being isolated; each item is
    also {!Ctx.arm}ed, so [ctx.deadline] bounds every item separately. *)
