(** The built-in decomposition backends as [Engine.SOLVER] modules.

    Ranks leave room for external backends: fast-chain 10, flow 30,
    brute 40.  [Engine.Registry.auto_select] therefore picks
    fast-chain on chain graphs (max degree ≤ 2) and flow otherwise —
    the historical [Auto] routing, now data-driven. *)

module Fast_chain_backend : Engine.SOLVER
module Flow_backend : Engine.SOLVER
module Brute_backend : Engine.SOLVER

val init : unit -> unit
(** Register the three built-ins (idempotent).  Forced by [Decompose] at
    module initialisation. *)
