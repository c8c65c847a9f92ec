(* The three built-in maximal-bottleneck backends, as first-class
   [Engine.SOLVER] modules.  [Decompose] forces [init] at module
   initialisation, so the registry is populated before any dispatch;
   external backends can register beside these without touching
   decompose.ml. *)

let budget_of ctx = ctx.Engine.Ctx.budget

module Fast_chain_backend = struct
  let name = "fast-chain"
  let rank = 10
  let handles = Graph.is_chain_graph

  let maximal_bottleneck ~ctx g ~mask =
    Chain_fast.maximal_bottleneck ?budget:(budget_of ctx) g ~mask
end

module Flow_backend = struct
  let name = "flow"
  let rank = 30
  let handles _ = true

  let maximal_bottleneck ~ctx g ~mask =
    Flow_solver.maximal_bottleneck ?budget:(budget_of ctx) g ~mask
end

module Brute_backend = struct
  let name = "brute"
  let rank = 40
  let handles g = Graph.n g <= 22

  let maximal_bottleneck ~ctx g ~mask =
    Brute.maximal_bottleneck ?budget:(budget_of ctx) g ~mask
end

let registered =
  lazy
    (Engine.Registry.register (module Fast_chain_backend);
     Engine.Registry.register (module Flow_backend);
     Engine.Registry.register (module Brute_backend))

let init () = Lazy.force registered
