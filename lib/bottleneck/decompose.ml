module Q = Rational

type solver = Engine.solver = FastChain | Flow | Brute | Auto

type pair = { b : Vset.t; c : Vset.t; alpha : Q.t }
type t = pair list

type Engine.Cache.value += Decomposition of t

let pair_alpha g p =
  let wb = Graph.weight_of_set g p.b and wc = Graph.weight_of_set g p.c in
  if Q.is_zero wb then
    (* Degenerate all-zero-weight stages; pick the convention matching the
       limit behaviour (utilities are 0 either way). *)
    if Vset.is_empty p.c then Q.zero
    else if Vset.equal p.b p.c then Q.one
    else Q.inf
  else Q.div wc wb

let c_computes = Obs.Counter.make ~subsystem:"decomposition" "computes"
let c_pairs = Obs.Counter.make ~subsystem:"decomposition" "pairs"

let c_auto_fastchain =
  Obs.Counter.make ~subsystem:"decomposition" "auto_fastchain"

let c_auto_flow = Obs.Counter.make ~subsystem:"decomposition" "auto_flow"

(* [Auto] resolves with one match: the chain DP on chain graphs, flow
   otherwise.  Resolution is counter-free so a cache hit can compute its
   key without recording an auto-routing decision that never ran. *)
let resolve g = function
  | Auto -> if Graph.is_chain_graph g then FastChain else Flow
  | (FastChain | Flow | Brute) as s -> s

let note_auto solver backend =
  match (solver, backend) with
  | Auto, FastChain -> Obs.Counter.incr c_auto_fastchain
  | Auto, Flow -> Obs.Counter.incr c_auto_flow
  | _ -> ()

(* The bottleneck oracle of a resolved backend: the maximal bottleneck
   of the subgraph induced by [mask] (paper, Definition 2). *)
let maximal_bottleneck ~ctx backend g ~mask =
  let budget = ctx.Engine.Ctx.budget in
  match backend with
  | FastChain -> Chain_fast.maximal_bottleneck ?budget g ~mask
  | Flow -> Flow_solver.maximal_bottleneck ?budget g ~mask
  | Brute -> Brute.maximal_bottleneck ?budget g ~mask
  | Auto -> assert false (* [resolve] never returns [Auto] *)

(* The generic extraction loop: one whole-mask maximal-bottleneck solve
   per pair.  Works for every backend; fast-chain on chain graphs is
   instead routed to the O(n log n) per-component driver below. *)
let generic_loop ~ctx backend g =
  let budget = ctx.Engine.Ctx.budget in
  let rec go mask acc =
    if Vset.is_empty mask then List.rev acc
    else begin
      Option.iter (fun b -> Budget.tick b) budget;
      let b = maximal_bottleneck ~ctx backend g ~mask in
      let c = Graph.gamma ~mask g b in
      (* For the α = 1 last pair Γ(B) ⊇ B; Definition 2 takes C = Γ(B)∩V_i,
         which then equals B only when every B vertex has a neighbour in B.
         Vertices of B without in-B neighbours still belong to C via other
         B vertices, so c is exactly Γ(B) within the mask. *)
      let p = { b; c; alpha = Q.zero } in
      let p = { p with alpha = pair_alpha g p } in
      Obs.Counter.incr c_pairs;
      go (Vset.diff mask (Vset.union b c)) (p :: acc)
    end
  in
  go (Graph.full_mask g) []

let compute_backend ~ctx backend g =
  Obs.Counter.incr c_computes;
  match backend with
  | FastChain when Graph.is_chain_graph g ->
      (* Per-component driver: same pairs, without re-solving untouched
         components each round (see Chain_decompose).  [on_pair] mirrors
         the generic loop's per-pair budget tick. *)
      let budget = ctx.Engine.Ctx.budget in
      let on_pair () = Option.iter (fun b -> Budget.tick b) budget in
      (* the driver supplies α from its scaled integer sums — the same
         canonical rational pair_alpha would recompute by re-summing
         rational weights over every vertex *)
      Chain_decompose.compute ~ctx ~on_pair g
      |> List.map (fun (b, c, alpha) ->
             Obs.Counter.incr c_pairs;
             { b; c; alpha })
  | _ -> generic_loop ~ctx backend g

(* Cache keys digest the serial line stream directly: no [to_string]
   payload and no adjacency rehydration for implicit ring/path
   backends. *)
let cache_key backend g = Engine.solver_name backend ^ ":" ^ Serial.digest g

(* Early-exit scan instead of summing rational weights over the whole
   vertex set: the guard only needs existence of a nonzero weight, and
   the sum was the single biggest allocator at n = 10⁶. *)
let all_weights_zero g =
  let n = Graph.n g in
  let rec go v = v >= n || (Q.is_zero (Graph.weight g v) && go (v + 1)) in
  go 0

let compute ?ctx ?budget g =
  Obs.Span.with_ "decompose" @@ fun () ->
  let ctx = Engine.Ctx.get ctx in
  let ctx =
    Engine.Ctx.arm
      (match budget with
      | Some b -> Engine.Ctx.with_budget b ctx
      | None -> ctx)
  in
  if all_weights_zero g then
    invalid_arg "Decompose.compute: all weights are zero";
  let solver = ctx.Engine.Ctx.solver in
  let backend = resolve g solver in
  match ctx.Engine.Ctx.cache with
  | None ->
      note_auto solver backend;
      compute_backend ~ctx backend g
  | Some cache -> (
      let key = cache_key backend g in
      match Engine.Cache.find cache key with
      | Some (Decomposition d) -> d
      | Some _ | None ->
          note_auto solver backend;
          let d = compute_backend ~ctx backend g in
          Engine.Cache.store cache key (Decomposition d);
          d)

let compute_r ?ctx ?budget g =
  Ringshare_error.capture (fun () -> compute ?ctx ?budget g)

(* Per-vertex lookups read an index derived from the list: the pairs as
   an array, and each vertex's pair position ([-1] for a vertex in no
   pair).  Building it is one O(n) pass; [t] stays a list because
   callers build and walk it as one.  The index is memoised per domain
   for the last decomposition looked up, matched by physical identity:
   a [t] is an immutable list, so the same list always holds the same
   pairs. *)
type index = { pairs : pair array; owner : int array }

let build_index d =
  let pairs = Array.of_list d in
  let top s m = if Vset.is_empty s then m else Int.max m (Vset.max_elt s) in
  let owner =
    Array.make (1 + Array.fold_left (fun m p -> top p.b (top p.c m)) (-1) pairs)
      (-1)
  in
  (* Claim from the last pair back, so that a vertex held by two pairs
     (only a malformed list has one) maps to the first, as a scan would. *)
  for i = Array.length pairs - 1 downto 0 do
    let claim v = if v >= 0 then owner.(v) <- i in
    Vset.iter claim pairs.(i).b;
    Vset.iter claim pairs.(i).c
  done;
  { pairs; owner }

let memo : (t * index) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let index d =
  match Domain.DLS.get memo with
  | Some (d', ix) when d' == d -> ix
  | _ ->
      let ix = build_index d in
      Domain.DLS.set memo (Some (d, ix));
      ix

let position ix v =
  if v < 0 || v >= Array.length ix.owner || ix.owner.(v) < 0 then
    raise Not_found
  else ix.owner.(v)

let pair_index d v = position (index d) v

let pair_of d v =
  let ix = index d in
  ix.pairs.(position ix v)

let alpha_of d v = (pair_of d v).alpha
let in_b d v = Vset.mem v (pair_of d v).b
let in_c d v = Vset.mem v (pair_of d v).c

let equal d1 d2 =
  List.length d1 = List.length d2
  && List.for_all2
       (fun p1 p2 ->
         Vset.equal p1.b p2.b && Vset.equal p1.c p2.c
         && Q.equal p1.alpha p2.alpha)
       d1 d2

let same_structure d1 d2 =
  List.length d1 = List.length d2
  && List.for_all2
       (fun p1 p2 -> Vset.equal p1.b p2.b && Vset.equal p1.c p2.c)
       d1 d2

let validate g d =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pairs = Array.of_list d in
  let k = Array.length pairs in
  let check_partition () =
    (* One pass recording the first pair that holds each vertex.  A later
       pair j holding v again overlaps first.(v); the least such (i, j)
       over all vertices is the lexicographically first overlapping pair,
       since any overlap (i, j) through v has first.(v) <= i and, when
       equal, v's second holder <= j. *)
    let n = Graph.n g in
    let first = Array.make n (-1) in
    let stray = ref false and overlap = ref None in
    Array.iteri
      (fun j p ->
        let claim v =
          if v < 0 || v >= n then stray := true
          else
            let i = first.(v) in
            if i < 0 then first.(v) <- j
            else if i <> j then
              match !overlap with
              | Some (i', _) when i' <= i -> ()
              | _ -> overlap := Some (i, j)
        in
        Vset.iter claim p.b;
        Vset.iter claim p.c)
      pairs;
    if !stray || Array.exists (fun i -> i < 0) first then
      err "pairs do not cover the vertex set"
    else
      match !overlap with
      | Some (i, j) -> err "pairs %d and %d overlap" i j
      | None -> Ok ()
  in
  let check_alphas () =
    let rec go i =
      if i >= k then Ok ()
      else
        let a = pairs.(i).alpha in
        if Q.compare a Q.one > 0 then err "alpha_%d > 1" (i + 1)
        else if i > 0 && Q.compare pairs.(i - 1).alpha a >= 0 then
          err "alpha_%d >= alpha_%d" i (i + 1)
        else if Q.equal a Q.one && i < k - 1 then
          err "alpha_%d = 1 but pair is not last" (i + 1)
        else go (i + 1)
    in
    go 0
  in
  let check_structure () =
    let rec go i =
      if i >= k then Ok ()
      else
        let p = pairs.(i) in
        if Q.compare p.alpha Q.one < 0 then
          if not (Vset.disjoint p.b p.c) then
            err "B_%d and C_%d intersect with alpha < 1" (i + 1) (i + 1)
          else if
            Vset.exists
              (fun u ->
                Array.exists
                  (fun v -> Vset.mem v p.b)
                  (Graph.neighbors g u))
              p.b
          then err "B_%d is not independent" (i + 1)
          else go (i + 1)
        else if not (Vset.equal p.b p.c) then
          err "alpha_%d = 1 but B_%d <> C_%d" (i + 1) (i + 1) (i + 1)
        else go (i + 1)
    in
    go 0
  in
  let check_cross_edges () =
    (* No B_i–B_j edges (i <> j); B_i–C_j edges require j <= i. *)
    let side = Array.make (Graph.n g) `None in
    Array.iteri
      (fun i p ->
        Vset.iter (fun v -> side.(v) <- `B i) p.b;
        Vset.iter
          (fun v -> if side.(v) = `None then side.(v) <- `C i)
          p.c)
      pairs;
    let bad = ref None in
    List.iter
      (fun (u, v) ->
        match (side.(u), side.(v)) with
        | `B i, `B j when i <> j ->
            bad := Some (Printf.sprintf "edge between B_%d and B_%d" (i + 1) (j + 1))
        | `B i, `C j | `C j, `B i ->
            if j > i then
              bad :=
                Some
                  (Printf.sprintf "edge between B_%d and C_%d" (i + 1) (j + 1))
        | _ -> ())
      (Graph.edges g);
    match !bad with None -> Ok () | Some m -> Error m
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  check_partition () >>= check_alphas >>= check_structure >>= check_cross_edges

module For_testing = struct
  let compute_generic ?ctx g =
    let ctx = Engine.Ctx.arm (Engine.Ctx.get ctx) in
    if all_weights_zero g then
      invalid_arg "Decompose.compute: all weights are zero";
    generic_loop ~ctx (resolve g ctx.Engine.Ctx.solver) g
end

let pp fmt d =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i p ->
      Format.fprintf fmt "(B%d, C%d) = (%a, %a)  alpha=%a@," (i + 1) (i + 1)
        Vset.pp p.b Vset.pp p.c Q.pp p.alpha)
    d;
  Format.fprintf fmt "@]"
