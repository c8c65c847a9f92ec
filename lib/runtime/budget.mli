(** Cooperative compute budgets: wall-clock deadlines and step counts.

    The long-running paths (Dinkelbach iterations, the chain DP, PRD
    dynamics, the attack-search sweeps) accept an optional budget and
    call {!tick} at natural unit-of-work boundaries.  When the budget is
    exhausted the next tick raises {!Exhausted}, which the
    [Ringshare_error.capture] boundary turns into a structured
    [Budget_exhausted] error — callers get partial results and a clean
    [Error] instead of a hung or killed process.

    Budgets are shared across OCaml 5 domains: the step counter is an
    atomic, so one budget can meter a parallel search ([Parwork.map]
    re-raises the worker's {!Exhausted} after all domains join). *)

type t

exception Exhausted of { steps : int; elapsed : float }
(** [steps] consumed and wall-clock seconds [elapsed] when the budget
    tripped. *)

val unlimited : t
(** Never trips; {!tick} on it is a few nanoseconds. *)

val create : ?seconds:float -> ?steps:int -> unit -> t
(** A budget that trips once [seconds] of wall clock have elapsed since
    creation or more than [steps] units of work have been ticked,
    whichever comes first.  Omitted dimensions are unlimited. *)

val is_limited : t -> bool

val tick : ?cost:int -> t -> unit
(** Consume [cost] (default 1) units of work, then raise {!Exhausted} if
    either limit is exceeded.  Once tripped, every later tick raises
    again (the budget is sticky). *)

val check : t -> unit
(** {!tick} with zero cost: re-check the deadline / stickiness only. *)

val used_steps : t -> int
val elapsed : t -> float
val exhausted : t -> bool
(** True once the budget has tripped. *)
