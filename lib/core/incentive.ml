module Q = Rational

type attack = {
  v : int;
  w1 : Q.t;
  utility : Q.t;
  honest : Q.t;
  ratio : Q.t;
}

type exact_attack = {
  witness : attack;
  w1_exact : Qx.t;
  utility_exact : Qx.t;
  ratio_exact : Qx.t;
  pieces : int;
  events : int;
}

let ratio_value ~utility ~honest =
  if Q.is_zero honest then if Q.is_zero utility then Q.one else Q.inf
  else Q.div utility honest

let ratio_value_qx ~utility ~honest =
  if Q.is_zero honest then
    if Qx.sign utility = 0 then Qx.of_q Q.one else Qx.of_q Q.inf
  else Qx.div_q utility honest

let clamp lo hi x = Q.max lo (Q.min hi x)

(* Memoisation cache for one search: split weight w1 -> attacker utility.
   Rationals are kept normalised, so Q.equal/Q.hash are semantic. *)
module QTbl = Hashtbl.Make (struct
  type t = Q.t

  let equal = Q.equal
  let hash = Q.hash
end)

let c_split_calls = Obs.Counter.make ~subsystem:"incentive" "best_split_calls"
let c_lookups = Obs.Counter.make ~subsystem:"incentive" "memo_lookups"
let c_hits = Obs.Counter.make ~subsystem:"incentive" "memo_hits"
let c_misses = Obs.Counter.make ~subsystem:"incentive" "memo_misses"
let c_sweep_points = Obs.Counter.make ~subsystem:"incentive" "sweep_points"

let c_sweep_deduped =
  Obs.Counter.make ~subsystem:"incentive" "sweep_points_deduped"

let c_attack_calls = Obs.Counter.make ~subsystem:"incentive" "best_attack_calls"
let c_honest_shared = Obs.Counter.make ~subsystem:"incentive" "honest_shared"
let g_cache = Obs.Gauge.make ~subsystem:"incentive" "max_cache_size"
let c_exact_calls = Obs.Counter.make ~subsystem:"incentive" "exact_sweep_calls"
let c_exact_events = Obs.Counter.make ~subsystem:"incentive" "exact_events"
let c_exact_pieces = Obs.Counter.make ~subsystem:"incentive" "exact_pieces"

let c_exact_criticals =
  Obs.Counter.make ~subsystem:"incentive" "exact_criticals"

let c_exact_evals = Obs.Counter.make ~subsystem:"incentive" "exact_evals"

(* Explicit [?budget] wins over the context's. *)
let with_budget_arg budget ctx =
  match budget with
  | Some b -> Engine.Ctx.with_budget b ctx
  | None -> ctx

(* Domain fan-out only pays for itself once each parallel task is heavy
   enough: below these floors the spawn + minor-heap contention overhead
   dominates (BENCH_ringshare.json showed best-attack/n=8/domains=2 at
   grid 8 running ~1.5x slower than domains=1), so small sweeps fall
   back to the serial path — which computes bit-identical results by
   construction.  [parallel_points_min] gates one sweep's fresh-point
   batch inside best_split; [parallel_evals_min] gates the grid kind's
   per-vertex fan-out by the expected evaluations per vertex. *)
let parallel_points_min = 16
let parallel_evals_min = 32

(* Split searches and the checkpointed scan run cache-free whoever
   calls them (see [with_request_cache]). *)
let cache_free_ctx ctx = Engine.Ctx.without_cache (Engine.Ctx.arm ctx)

let best_split_grid ?ctx ?budget ?honest g ~v =
  let ctx = cache_free_ctx (with_budget_arg budget (Engine.Ctx.get ctx)) in
  let { Engine.Ctx.grid; refine; domains; _ } = ctx in
  if grid < 2 then invalid_arg "Incentive.best_split: grid too small";
  Obs.Span.with_ "best_split" @@ fun () ->
  Obs.Counter.incr c_split_calls;
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  (* split evaluations are metered here, once per distinct point; the
     decompositions they trigger run un-budgeted, as they always have *)
  let dctx = Engine.Ctx.without_budget ctx in
  let w = Graph.weight g v in
  let cost = 1 + Graph.n g in
  let honest =
    match honest with
    | Some u -> u
    | None -> Sybil.honest_utility ~ctx:dctx g ~v
  in
  (* Per-search cache: zoom rounds overlap (the previous best is the
     centre of the next window) and clamped extras collide with grid
     points, so without it the same split is decomposed several times.
     Each distinct w1 is evaluated — and budget-charged — exactly once
     per search. *)
  let cache = QTbl.create 64 in
  let eval w1 =
    Budget.tick ~cost budget;
    Sybil.split_utility ~ctx:dctx g ~v ~w1
  in
  let eval_batch points =
    let fresh = List.filter (fun w1 -> not (QTbl.mem cache w1)) points in
    if Engine.Ctx.obs_enabled ctx then begin
      let lookups = List.length points and misses = List.length fresh in
      Obs.Counter.add c_lookups lookups;
      Obs.Counter.add c_misses misses;
      Obs.Counter.add c_hits (lookups - misses)
    end;
    match fresh with
    | [] -> ()
    | [ w1 ] -> QTbl.replace cache w1 (eval w1)
    | _ when domains > 1 && List.length fresh >= parallel_points_min ->
        (* grid points are independent decompositions; the shared budget
           counter is atomic, and results land by index so the filled
           cache is identical to the sequential one *)
        let arr = Array.of_list fresh in
        let us = Parwork.map ~domains eval arr in
        Array.iteri (fun i u -> QTbl.replace cache arr.(i) u) us
    | _ -> List.iter (fun w1 -> QTbl.replace cache w1 (eval w1)) fresh
  in
  let best_of points acc =
    List.fold_left
      (fun (bw, bu) w1 ->
        match QTbl.find_opt cache w1 with
        | Some u when Q.compare u bu > 0 -> (w1, u)
        | _ -> (bw, bu))
      acc points
  in
  let sweep lo hi extras acc =
    let step = Q.div_int (Q.sub hi lo) grid in
    let points =
      if Q.is_zero step then [ lo ]
      else
        extras
        @ List.init (grid + 1) (fun i -> Q.add lo (Q.mul_int step i))
    in
    let points = List.map (clamp Q.zero w) points in
    (* Evaluate (and budget-charge) each distinct point once, but fold in
       the original extras-first order: with the strict [>] comparison the
       first point of a utility tie wins, so this keeps the reported [w1]
       identical to the pre-memoisation search. *)
    let deduped = List.sort_uniq Q.compare points in
    if Engine.Ctx.obs_enabled ctx then begin
      Obs.Counter.add c_sweep_points (List.length points);
      Obs.Counter.add c_sweep_deduped (List.length deduped)
    end;
    eval_batch deduped;
    best_of points acc
  in
  let w10, _ = Sybil.initial_split ~ctx:dctx g ~v in
  let rec zoom lo hi extras rounds (bw, bu) =
    let bw, bu = sweep lo hi extras (bw, bu) in
    if rounds = 0 then (bw, bu)
    else
      let step = Q.div_int (Q.sub hi lo) grid in
      if Q.is_zero step then (bw, bu)
      else
        zoom
          (clamp Q.zero w (Q.sub bw step))
          (clamp Q.zero w (Q.add bw step))
          [] (rounds - 1) (bw, bu)
  in
  let bw, bu = zoom Q.zero w [ w10 ] refine (w10, honest) in
  if Engine.Ctx.obs_enabled ctx then
    Obs.Gauge.set_max g_cache (QTbl.length cache);
  { v; w1 = bw; utility = bu; honest; ratio = ratio_value ~utility:bu ~honest }

(* ------------------------------------------------------------------ *)
(* Exact event-driven sweep (DESIGN §16)                               *)
(* ------------------------------------------------------------------ *)

(* Denominator of the dyadic rational witness reported when the
   certified optimum is irrational. *)
let witness_denom = 1 lsl 40

let best_split_exact ?ctx ?budget ?honest g ~v =
  let ctx = cache_free_ctx (with_budget_arg budget (Engine.Ctx.get ctx)) in
  Obs.Span.with_ "best_split_exact" @@ fun () ->
  Obs.Counter.incr c_exact_calls;
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let dctx = Engine.Ctx.without_budget ctx in
  let w = Graph.weight g v in
  let cost = 1 + Graph.n g in
  let honest =
    match honest with
    | Some u -> u
    | None -> Sybil.honest_utility ~ctx:dctx g ~v
  in
  let mech w1 =
    Budget.tick ~cost budget;
    Sybil.split_utility ~ctx:dctx g ~v ~w1
  in
  if Q.is_zero w then begin
    let u = mech Q.zero in
    let witness =
      { v; w1 = Q.zero; utility = u; honest;
        ratio = ratio_value ~utility:u ~honest }
    in
    {
      witness;
      w1_exact = Qx.of_q Q.zero;
      utility_exact = Qx.of_q u;
      ratio_exact = ratio_value_qx ~utility:(Qx.of_q u) ~honest;
      pieces = 0;
      events = 0;
    }
  end
  else begin
    let pieces = Breakpoints.exact_split_pieces ~ctx g ~v in
    let events = List.length (Breakpoints.events pieces) in
    let evals = ref 0 and criticals = ref 0 in
    let best = ref None in
    (* strict improvement only: the first candidate of a utility tie —
       walking the pieces left to right — is the reported optimum *)
    let consider x u =
      incr evals;
      match !best with
      | Some (_, bu) when Qx.compare u bu <= 0 -> ()
      | _ -> best := Some (x, u)
    in
    List.iter
      (fun (p : Breakpoints.exact_piece) ->
        Budget.tick ~cost budget;
        if Qx.equal p.Breakpoints.xlo p.Breakpoints.xhi then
          (* point piece: its structure lives at one rational point, so
             evaluate the mechanism there directly *)
          consider (Qx.of_q p.sample) (Qx.of_q (mech p.sample))
        else begin
          let num, den =
            Symbolic.slice_utility_function g ~v1:v ~v2:(Graph.n g) ~total:w
              ~structure:p.structure ~ids:[| v; Graph.n g |]
          in
          (* the closed form extends continuously to the piece boundary
             (Theorem 10), so closed-endpoint evaluation is sound even
             where the at-point structure differs; a point where D
             vanishes is skipped *)
          let cands =
            Symbolic.closed_form_candidates ~num ~den ~lo:p.xlo ~hi:p.xhi
          in
          criticals := !criticals + List.length cands - 2;
          List.iter (fun (x, u) -> Option.iter (consider x) u) cands;
          (* anchor: the sampled interior point, by rational evaluation *)
          consider (Qx.of_q p.sample)
            (Qx.of_q
               (Q.div (Poly.eval num p.sample) (Poly.eval den p.sample)))
        end)
      pieces;
    let w1x, ux = match !best with Some b -> b | None -> assert false in
    let witness =
      if Qx.is_rational w1x then begin
        let w1 = Qx.to_q_exn w1x in
        let u = mech w1 in
        (* the certified closed form and the mechanism must agree at any
           rational optimum *)
        assert (Qx.compare_q ux u = 0);
        { v; w1; utility = u; honest; ratio = ratio_value ~utility:u ~honest }
      end
      else begin
        (* irrational optimum: report the better of the two dyadic
           rationals bracketing it at denominator 2^40 — the utility is
           continuous, so the witness sits within vanishing distance of
           the certified supremum *)
        let scaled = Qx.mul_q w1x (Q.of_int witness_denom) in
        let lo = Q.make (Qx.floor scaled) (Bigint.of_int witness_denom) in
        let hi = Q.add lo (Q.of_ints 1 witness_denom) in
        let cands =
          List.sort_uniq Q.compare [ clamp Q.zero w lo; clamp Q.zero w hi ]
        in
        let vals = List.map (fun w1 -> (w1, mech w1)) cands in
        let bw, bu =
          List.fold_left
            (fun (bw, bu) (w1, u) ->
              if Q.compare u bu > 0 then (w1, u) else (bw, bu))
            (List.hd vals) (List.tl vals)
        in
        { v; w1 = bw; utility = bu; honest;
          ratio = ratio_value ~utility:bu ~honest }
      end
    in
    if Engine.Ctx.obs_enabled ctx then begin
      Obs.Counter.add c_exact_pieces (List.length pieces);
      Obs.Counter.add c_exact_events events;
      Obs.Counter.add c_exact_criticals !criticals;
      Obs.Counter.add c_exact_evals !evals
    end;
    {
      witness;
      w1_exact = w1x;
      utility_exact = ux;
      ratio_exact = ratio_value_qx ~utility:ux ~honest;
      pieces = List.length pieces;
      events;
    }
  end

(* [best_split] routes on the context's sweep policy: [Grid] keeps the
   historical grid-with-zoom search bit-identical, [Exact] returns the
   certified optimum's rational witness. *)
let best_split ?ctx ?budget ?honest g ~v =
  let ctx = Engine.Ctx.get ctx in
  match ctx.Engine.Ctx.sweep with
  | Engine.Grid -> best_split_grid ~ctx ?budget ?honest g ~v
  | Engine.Exact -> (best_split_exact ~ctx ?budget ?honest g ~v).witness

(* ------------------------------------------------------------------ *)
(* k-identity split vectors (ctx.identities ≥ 3)                       *)
(* ------------------------------------------------------------------ *)

type kattack = {
  v : int;
  weights : Q.t array;
  utility : Q.t;
  honest : Q.t;
  ratio : Q.t;
}

(* Memo over full weight vectors: entries are normalised rationals, so
   pointwise Q.equal / Q.hash are semantic. *)
module QVTbl = Hashtbl.Make (struct
  type t = Q.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i = Array.length a || (Q.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash a = Array.fold_left (fun acc x -> (acc * 31) + Q.hash x) 17 a
end)

let vec_compare a b =
  let rec go i =
    if i = Array.length a then 0
    else match Q.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let c_kway_points = Obs.Counter.make ~subsystem:"incentive" "kway_points"
let c_kway_rounds = Obs.Counter.make ~subsystem:"incentive" "kway_rounds"

let c_kway_exact_events =
  Obs.Counter.make ~subsystem:"incentive" "kway_exact_events"

let c_kway_lookups =
  Obs.Counter.make ~subsystem:"incentive" "kway_memo_lookups"

let c_kway_hits = Obs.Counter.make ~subsystem:"incentive" "kway_memo_hits"
let c_kway_misses = Obs.Counter.make ~subsystem:"incentive" "kway_memo_misses"

let kattack_of_attack g (a : attack) =
  let w = Graph.weight g a.v in
  {
    v = a.v;
    weights = [| a.w1; Q.sub w a.w1 |];
    utility = a.utility;
    honest = a.honest;
    ratio = a.ratio;
  }

(* Per-search memo for k-way sweeps, keyed by the full weight vector;
   each distinct vector is evaluated — and budget-charged, cost [1 + n]
   — exactly once per search.  Callers pass deduplicated batches;
   [kway_memo_hits + kway_memo_misses = kway_memo_lookups] by
   construction. *)
let kway_evaluator ~ctx ~budget g ~v =
  let dctx = Engine.Ctx.without_budget ctx in
  let cost = 1 + Graph.n g in
  let cache = QVTbl.create 64 in
  let eval ws =
    Budget.tick ~cost budget;
    Sybil.splitk_utility ~ctx:dctx g { Sybil.v; weights = ws }
  in
  let eval_batch vecs =
    let fresh = List.filter (fun ws -> not (QVTbl.mem cache ws)) vecs in
    if Engine.Ctx.obs_enabled ctx then begin
      let lookups = List.length vecs and misses = List.length fresh in
      Obs.Counter.add c_kway_lookups lookups;
      Obs.Counter.add c_kway_misses misses;
      Obs.Counter.add c_kway_hits (lookups - misses)
    end;
    match fresh with
    | [] -> ()
    | [ ws ] -> QVTbl.replace cache ws (eval ws)
    | _
      when ctx.Engine.Ctx.domains > 1
           && List.length fresh >= parallel_points_min ->
        (* independent decompositions; the shared budget counter is
           atomic and results land by index, so the filled memo is
           identical to the sequential one *)
        let arr = Array.of_list fresh in
        let us = Parwork.map ~domains:ctx.Engine.Ctx.domains eval arr in
        Array.iteri (fun i u -> QVTbl.replace cache arr.(i) u) us
    | _ -> List.iter (fun ws -> QVTbl.replace cache ws (eval ws)) fresh
  in
  let get ws =
    match QVTbl.find_opt cache ws with
    | Some u -> u
    | None -> assert false
  in
  (cache, eval_batch, get)

(* Grid mode over the (k−1)-simplex: the free coordinates 0..k−2 each
   sweep a [grid]-point window (the last coordinate absorbs the
   remainder; lattice points overshooting the simplex are dropped), and
   each zoom round shrinks every free coordinate's window ±step around
   the best vector — the direct generalisation of [best_split_grid]'s
   per-coordinate grid-with-zoom. *)
let best_splitk_grid ~ctx ?honest g ~v =
  let ctx = cache_free_ctx ctx in
  let k = ctx.Engine.Ctx.identities in
  let { Engine.Ctx.grid; refine; _ } = ctx in
  if grid < 2 then invalid_arg "Incentive.best_splitk: grid too small";
  Obs.Span.with_ "best_splitk" @@ fun () ->
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let dctx = Engine.Ctx.without_budget ctx in
  let w = Graph.weight g v in
  let honest =
    match honest with
    | Some u -> u
    | None -> Sybil.honest_utility ~ctx:dctx g ~v
  in
  let cache, eval_batch, _get = kway_evaluator ~ctx ~budget g ~v in
  let vec_of free =
    let ws = Array.make k Q.zero in
    let sum = ref Q.zero in
    Array.iteri
      (fun i x ->
        ws.(i) <- x;
        sum := Q.add !sum x)
      free;
    ws.(k - 1) <- Q.sub w !sum;
    ws
  in
  let points_of windows =
    let axes =
      Array.map
        (fun (lo, hi) ->
          let step = Q.div_int (Q.sub hi lo) grid in
          if Q.is_zero step then [ lo ]
          else
            List.init (grid + 1) (fun i ->
                clamp Q.zero w (Q.add lo (Q.mul_int step i))))
        windows
    in
    (* rightmost free coordinate varies fastest, so the enumeration
       order — and with it the first-of-a-tie winner — is deterministic *)
    let rec cart i =
      if i = Array.length axes then [ [] ]
      else
        let rest = cart (i + 1) in
        List.concat_map (fun x -> List.map (fun tl -> x :: tl) rest) axes.(i)
    in
    List.filter_map
      (fun free ->
        let free = Array.of_list free in
        let sum = Array.fold_left Q.add Q.zero free in
        if Q.compare sum w > 0 then None else Some (vec_of free))
      (cart 0)
  in
  let best_of points acc =
    List.fold_left
      (fun (bv, bu) ws ->
        match QVTbl.find_opt cache ws with
        | Some u when Q.compare u bu > 0 -> (ws, u)
        | _ -> (bv, bu))
      acc points
  in
  let sweep windows extras acc =
    let points = extras @ points_of windows in
    let deduped = List.sort_uniq vec_compare points in
    if Engine.Ctx.obs_enabled ctx then
      Obs.Counter.add c_kway_points (List.length points);
    eval_batch deduped;
    best_of points acc
  in
  let uniform = Array.make k (Q.div_int w k) in
  let rec zoom windows extras rounds (bv, bu) =
    let bv, bu = sweep windows extras (bv, bu) in
    if rounds = 0 then (bv, bu)
    else
      let steps =
        Array.map (fun (lo, hi) -> Q.div_int (Q.sub hi lo) grid) windows
      in
      if Array.for_all Q.is_zero steps then (bv, bu)
      else
        let windows =
          Array.init (k - 1) (fun i ->
              ( clamp Q.zero w (Q.sub bv.(i) steps.(i)),
                clamp Q.zero w (Q.add bv.(i) steps.(i)) ))
        in
        zoom windows [] (rounds - 1) (bv, bu)
  in
  (* seed: the uniform vector's real mechanism value, so the starting
     accumulator never reports an unevaluated point *)
  eval_batch [ uniform ];
  let u0 =
    match QVTbl.find_opt cache uniform with
    | Some u -> u
    | None -> assert false
  in
  let windows0 = Array.make (k - 1) (Q.zero, w) in
  let bv, bu = zoom windows0 [ uniform ] refine (uniform, u0) in
  if Engine.Ctx.obs_enabled ctx then
    Obs.Gauge.set_max g_cache (QVTbl.length cache);
  { v; weights = bv; utility = bu; honest; ratio = ratio_value ~utility:bu ~honest }

(* Full simplex lattice at one resolution: every vector of [k] weights
   from the step grid summing to [w] (last coordinate absorbs the
   remainder), in the same rightmost-fastest order as the grid sweep. *)
let simplex_lattice ~k ~w ~grid =
  let step = Q.div_int w grid in
  let rec go m remaining acc =
    if m = 1 then [ Array.of_list (List.rev (remaining :: acc)) ]
    else
      List.concat
        (List.filter_map
           (fun i ->
             let x = Q.mul_int step i in
             if Q.compare x remaining > 0 then None
             else Some (go (m - 1) (Q.sub remaining x) (x :: acc)))
           (List.init (grid + 1) Fun.id))
  in
  if Q.is_zero step then [ Array.make k Q.zero ] else go k w []

let kway_max_rounds = 64

(* Exact mode at k ≥ 3: coordinate descent over certified 1-D slices.
   Each inner step pairs one free coordinate with the last identity
   (their sum [total] fixed, every other coordinate frozen), enumerates
   that slice's structure-constant pieces exactly
   ([Breakpoints.exact_slice_pieces] on the materialised split path) and
   collects rational candidates: piece samples, rational boundaries,
   critical points of each piece's closed-form utility (exact quadratic
   roots when the derivative numerator has degree ≤ 2, Sturm-isolated
   bracket midpoints above that, irrational points replaced by their
   dyadic 2⁻⁴⁰ brackets).  Every candidate is judged by an actual
   mechanism evaluation through the shared memo, the current point is
   always among the candidates, and only strict improvements move — so
   the descent terminates at a point no walked slice can improve: a
   certified local optimum of the simplex along coordinate lines (every
   reported value is an exactly-evaluated mechanism value, never a
   closed-form extrapolation). *)
let best_splitk_exact ~ctx ?honest g ~v =
  let ctx = cache_free_ctx ctx in
  let k = ctx.Engine.Ctx.identities in
  Obs.Span.with_ "best_splitk_exact" @@ fun () ->
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let dctx = Engine.Ctx.without_budget ctx in
  let w = Graph.weight g v in
  let honest =
    match honest with
    | Some u -> u
    | None -> Sybil.honest_utility ~ctx:dctx g ~v
  in
  let _cache, eval_batch, get_cached = kway_evaluator ~ctx ~budget g ~v in
  let finish ws u =
    { v; weights = ws; utility = u; honest;
      ratio = ratio_value ~utility:u ~honest }
  in
  if Q.is_zero w then begin
    let ws = Array.make k Q.zero in
    eval_batch [ ws ];
    finish ws (get_cached ws)
  end
  else begin
    (* Deterministic global seeding: a coarse simplex lattice pre-pass
       through the shared memo picks the descent's starting corner, so
       the local search does not hinge on the uniform point's basin.
       The uniform vector goes first — on a lattice tie it wins. *)
    let seeds =
      Array.make k (Q.div_int w k) :: simplex_lattice ~k ~w ~grid:4
    in
    eval_batch (List.sort_uniq vec_compare seeds);
    if Engine.Ctx.obs_enabled ctx then
      Obs.Counter.add c_kway_points (List.length seeds);
    let x = ref (List.hd seeds) in
    let best_u = ref (get_cached !x) in
    List.iter
      (fun ws ->
        let u = get_cached ws in
        if Q.compare u !best_u > 0 then begin
          x := ws;
          best_u := u
        end)
      (List.tl seeds);
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < kway_max_rounds do
      improved := false;
      incr rounds;
      if Engine.Ctx.obs_enabled ctx then Obs.Counter.incr c_kway_rounds;
      for i = 0 to k - 2 do
        let total = Q.add (!x).(i) (!x).(k - 1) in
        if Q.sign total > 0 then begin
          let ks = Sybil.splitk g { Sybil.v; weights = !x } in
          let v1 = ks.Sybil.ids.(i) and v2 = ks.Sybil.ids.(k - 1) in
          let pieces =
            Breakpoints.exact_slice_pieces ~ctx ks.Sybil.kpath ~v1 ~v2 ~total
          in
          if Engine.Ctx.obs_enabled ctx then
            Obs.Counter.add c_kway_exact_events
              (List.length (Breakpoints.events pieces));
          let cands = ref [ (!x).(i) ] in
          let addc c =
            if Q.sign c >= 0 && Q.compare c total <= 0 then
              cands := c :: !cands
          in
          let add_qx r =
            if Qx.is_rational r then addc (Qx.to_q_exn r)
            else begin
              (* irrational slice point: its dyadic bracket at
                 denominator 2^40 (cf. the exact sweep's witness) *)
              let scaled = Qx.mul_q r (Q.of_int witness_denom) in
              let lo = Q.make (Qx.floor scaled) (Bigint.of_int witness_denom) in
              addc lo;
              addc (Q.add lo (Q.of_ints 1 witness_denom))
            end
          in
          List.iter
            (fun (p : Breakpoints.exact_piece) ->
              addc p.Breakpoints.sample;
              add_qx p.Breakpoints.xlo;
              add_qx p.Breakpoints.xhi;
              if not (Qx.equal p.Breakpoints.xlo p.Breakpoints.xhi) then begin
                let num, den =
                  Symbolic.slice_utility_function ks.Sybil.kpath ~v1 ~v2
                    ~total ~structure:p.Breakpoints.structure
                    ~ids:ks.Sybil.ids
                in
                let e =
                  Poly.sub
                    (Poly.mul (Poly.derive num) den)
                    (Poly.mul num (Poly.derive den))
                in
                if not (Poly.is_zero e) then
                  if Poly.degree e <= 2 then
                    List.iter
                      (fun r ->
                        if
                          Qx.compare p.Breakpoints.xlo r < 0
                          && Qx.compare r p.Breakpoints.xhi < 0
                        then add_qx r)
                      (Qx.roots2 ~a:(Poly.coeff e 2) ~b:(Poly.coeff e 1)
                         ~c:(Poly.coeff e 0))
                  else begin
                    (* with ≥ 3 identities several distinct pairs can
                       involve an identity, so the derivative numerator
                       may exceed degree 2; isolate its roots over a
                       rational sub-bracket of the piece (Sturm) and
                       take bracket midpoints as candidates *)
                    let lo_q =
                      if Qx.is_rational p.Breakpoints.xlo then
                        Qx.to_q_exn p.Breakpoints.xlo
                      else
                        Qx.rational_between p.Breakpoints.xlo
                          (Qx.of_q p.Breakpoints.sample)
                    and hi_q =
                      if Qx.is_rational p.Breakpoints.xhi then
                        Qx.to_q_exn p.Breakpoints.xhi
                      else
                        Qx.rational_between (Qx.of_q p.Breakpoints.sample)
                          p.Breakpoints.xhi
                    in
                    if Q.compare lo_q hi_q < 0 then
                      List.iter
                        (fun (l, h) -> addc (Q.div_int (Q.add l h) 2))
                        (Poly.isolate_roots e ~lo:lo_q ~hi:hi_q)
                  end
              end)
            pieces;
          let vecs =
            List.rev_map
              (fun c ->
                let ws = Array.copy !x in
                ws.(i) <- c;
                ws.(k - 1) <- Q.sub total c;
                ws)
              !cands
          in
          eval_batch (List.sort_uniq vec_compare vecs);
          (* first of a utility tie — in candidate discovery order —
             wins; the current point is candidate zero, so a plateau
             never moves *)
          let bw, bu =
            List.fold_left
              (fun (bv, bu) ws ->
                let u = get_cached ws in
                if Q.compare u bu > 0 then (ws, u) else (bv, bu))
              (!x, !best_u) vecs
          in
          if Q.compare bu !best_u > 0 then begin
            x := bw;
            best_u := bu;
            improved := true
          end
        end
      done
    done;
    finish !x !best_u
  end

(* [best_splitk] subsumes [best_split]: at the default two identities it
   delegates to the historical search (bit-identical, both sweep modes)
   and wraps the pair as a length-2 vector. *)
let best_splitk ?ctx ?budget ?honest g ~v =
  let ctx = Engine.Ctx.arm (with_budget_arg budget (Engine.Ctx.get ctx)) in
  if Int.equal ctx.Engine.Ctx.identities 2 then
    kattack_of_attack g (best_split ~ctx ?honest g ~v)
  else
    match ctx.Engine.Ctx.sweep with
    | Engine.Grid -> best_splitk_grid ~ctx ?honest g ~v
    | Engine.Exact -> best_splitk_exact ~ctx ?honest g ~v

(* ------------------------------------------------------------------ *)
(* Checkpoint fields, one codec per result type                        *)
(* ------------------------------------------------------------------ *)

let attack_fields = function
  | None -> [ ("best", "none") ]
  | Some (a : attack) ->
      [
        ("best", "some");
        ("best_v", string_of_int a.v);
        ("best_w1", Q.to_string a.w1);
        ("best_utility", Q.to_string a.utility);
        ("best_honest", Q.to_string a.honest);
        ("best_ratio", Q.to_string a.ratio);
      ]

let attack_of_fields fields =
  match Checkpoint.field fields "best" with
  | "none" -> None
  | "some" ->
      Some
        {
          v = Checkpoint.int_field fields "best_v";
          w1 = Q.of_string (Checkpoint.field fields "best_w1");
          utility = Q.of_string (Checkpoint.field fields "best_utility");
          honest = Q.of_string (Checkpoint.field fields "best_honest");
          ratio = Q.of_string (Checkpoint.field fields "best_ratio");
        }
  | s ->
      Ringshare_error.(
        error (Invalid_input (Printf.sprintf "checkpoint: bad best marker %S" s)))

(* Exact-sweep checkpoint extension: the certified optimum rides along
   as Qx strings next to its rational witness (serialised by
   [attack_fields]), so a killed exact scan resumes bit-identically. *)
let exact_fields e =
  attack_fields (Option.map (fun e -> e.witness) e)
  @
  match e with
  | None -> []
  | Some e ->
      [
        ("exact_w1", Qx.to_string e.w1_exact);
        ("exact_utility", Qx.to_string e.utility_exact);
        ("exact_ratio", Qx.to_string e.ratio_exact);
        ("exact_pieces", string_of_int e.pieces);
        ("exact_events", string_of_int e.events);
      ]

let exact_of_fields fields =
  match attack_of_fields fields with
  | None -> None
  | Some witness ->
      Some
        {
          witness;
          w1_exact = Qx.of_string (Checkpoint.field fields "exact_w1");
          utility_exact = Qx.of_string (Checkpoint.field fields "exact_utility");
          ratio_exact = Qx.of_string (Checkpoint.field fields "exact_ratio");
          pieces = Checkpoint.int_field fields "exact_pieces";
          events = Checkpoint.int_field fields "exact_events";
        }

(* k ≥ 3 checkpoint extension: the best k-way attack rides along under
   its own field names (the weight vector ";"-joined), so the k = 2
   layout is untouched. *)
let kattack_fields = function
  | None -> [ ("kbest", "none") ]
  | Some a ->
      [
        ("kbest", "some");
        ("kbest_v", string_of_int a.v);
        ( "kbest_weights",
          String.concat ";" (List.map Q.to_string (Array.to_list a.weights)) );
        ("kbest_utility", Q.to_string a.utility);
        ("kbest_honest", Q.to_string a.honest);
        ("kbest_ratio", Q.to_string a.ratio);
      ]

let kattack_of_fields fields =
  match Checkpoint.field fields "kbest" with
  | "none" -> None
  | "some" ->
      Some
        {
          v = Checkpoint.int_field fields "kbest_v";
          weights =
            Array.of_list
              (List.map Q.of_string
                 (String.split_on_char ';'
                    (Checkpoint.field fields "kbest_weights")));
          utility = Q.of_string (Checkpoint.field fields "kbest_utility");
          honest = Q.of_string (Checkpoint.field fields "kbest_honest");
          ratio = Q.of_string (Checkpoint.field fields "kbest_ratio");
        }
  | s ->
      Ringshare_error.(
        error
          (Invalid_input (Printf.sprintf "checkpoint: bad kbest marker %S" s)))

(* ------------------------------------------------------------------ *)
(* ζ = max_v ζ_v: one all-vertex loop for every attack kind            *)
(* ------------------------------------------------------------------ *)

(* Definition 7 is one maximum over vertices of one per-vertex search.
   A kind describes that search; the fan-out and the checkpointed scan
   below are the only two walks of the maximum. *)
type 'r kind = {
  span : string;  (* the fan-out's span *)
  sweep : Engine.sweep;  (* the sweep the request key names *)
  identities : int;  (* the identity count the request key names *)
  fanout : Engine.Ctx.t -> int;  (* domains for the per-vertex fan-out *)
  search : Engine.Ctx.t -> honest:Q.t -> Graph.t -> int -> 'r;
  improves : 'r -> 'r -> bool;
      (* [improves later earlier]: a strictly better ratio *)
  wrap : 'r -> Engine.Cache.value;
  unwrap : Engine.Cache.value -> 'r option;
  fields : 'r option -> (string * string) list;  (* checkpoint tail *)
  of_fields : (string * string) list -> 'r option;
}

type Engine.Cache.value +=
  | Attack of attack
  | Exact_attack of exact_attack
  | Kattack of kattack

let grid_kind =
  {
    span = "best_attack";
    sweep = Engine.Grid;
    identities = 2;
    fanout =
      (fun ctx ->
        if (ctx.Engine.Ctx.grid + 1) * (ctx.Engine.Ctx.refine + 1)
           < parallel_evals_min
        then 1
        else ctx.Engine.Ctx.domains);
    search = (fun ctx ~honest g v -> best_split_grid ~ctx ~honest g ~v);
    improves = (fun (a : attack) b -> Q.compare a.ratio b.ratio > 0);
    wrap = (fun a -> Attack a);
    unwrap = (function Attack a -> Some a | _ -> None);
    fields = attack_fields;
    of_fields = attack_of_fields;
  }

(* Under [Exact] the winner is selected by the certified exact ratio —
   two vertices whose grid estimates tie can rank differently once
   resolved exactly. *)
let exact_kind =
  {
    span = "best_attack_exact";
    sweep = Engine.Exact;
    identities = 2;
    fanout = (fun ctx -> ctx.Engine.Ctx.domains);
    search = (fun ctx ~honest g v -> best_split_exact ~ctx ~honest g ~v);
    improves = (fun a b -> Qx.compare a.ratio_exact b.ratio_exact > 0);
    wrap = (fun e -> Exact_attack e);
    unwrap = (function Exact_attack e -> Some e | _ -> None);
    fields = exact_fields;
    of_fields = exact_of_fields;
  }

(* k ≥ 3: the context's sweep and identity count pick the search. *)
let kway_kind ctx =
  let sweep = ctx.Engine.Ctx.sweep in
  {
    span = "best_attack_k";
    sweep;
    identities = ctx.Engine.Ctx.identities;
    fanout = (fun ctx -> ctx.Engine.Ctx.domains);
    search =
      (match sweep with
      | Engine.Grid -> fun ctx ~honest g v -> best_splitk_grid ~ctx ~honest g ~v
      | Engine.Exact ->
          fun ctx ~honest g v -> best_splitk_exact ~ctx ~honest g ~v);
    improves = (fun (a : kattack) b -> Q.compare a.ratio b.ratio > 0);
    wrap = (fun a -> Kattack a);
    unwrap = (function Kattack a -> Some a | _ -> None);
    fields = kattack_fields;
    of_fields = kattack_of_fields;
  }

(* First of a ratio tie wins: folding vertices in order keeps the
   earliest. *)
let keep_best kind best a =
  match best with Some b when not (kind.improves a b) -> best | _ -> Some a

(* A shared [Engine.Cache] holds one entry per attack request, never one
   per split: on an 11-vertex split path one [Serial.digest] costs
   8–19 µs (the upper figure with a 64 KB chunk buffer per call) against
   ~7 µs for the decomposition it would save, and the split graphs of one
   search recur in another only when the whole instance does.  The key
   names every setting that changes the answer — the sweep actually run,
   grid/refine for the grid sweep, the identity count, the solver — then
   the graph digest; domains and budget stay out (results are
   bit-identical across domains, and a tripped budget raises before
   anything is stored).  DESIGN §12. *)
let request_key kind ctx g =
  let knobs =
    match kind.sweep with
    | Engine.Grid ->
        Printf.sprintf "grid:%d:%d" ctx.Engine.Ctx.grid ctx.Engine.Ctx.refine
    | Engine.Exact -> "exact"
  in
  Printf.sprintf "attack:%s:k%d:%s:%s" knobs kind.identities
    (Engine.solver_name ctx.Engine.Ctx.solver)
    (Serial.digest g)

(* One lookup for the whole request; the search itself runs on a
   cache-free context, so no inner decomposition builds a key. *)
let with_request_cache kind ctx g search =
  match ctx.Engine.Ctx.cache with
  | None -> search ctx
  | Some cache -> (
      let key = request_key kind ctx g in
      match Option.bind (Engine.Cache.find cache key) kind.unwrap with
      | Some r -> r
      | None ->
          let r = search (Engine.Ctx.without_cache ctx) in
          Engine.Cache.store cache key (kind.wrap r);
          r)

let fan_out kind ?ctx ?budget g =
  if Graph.n g = 0 then invalid_arg "Incentive.best_attack: empty graph";
  let ctx = Engine.Ctx.arm (with_budget_arg budget (Engine.Ctx.get ctx)) in
  Obs.Span.with_ kind.span @@ fun () ->
  Obs.Counter.incr c_attack_calls;
  with_request_cache kind ctx g @@ fun ctx ->
  (* the honest utilities of all vertices come from one decomposition of
     the unmodified ring; computing it once here instead of once per
     vertex saves n-1 full decompositions *)
  let d = Decompose.compute ~ctx:(Engine.Ctx.without_budget ctx) g in
  Obs.Counter.add c_honest_shared (Graph.n g);
  (* parallelism lives at the vertex level: each search runs
     sequentially on its worker domain (nested fan-out would
     oversubscribe).  The budget's step counter is atomic, so one budget
     meters all domains; Parwork re-raises the first Exhausted after
     every domain has joined. *)
  let split_ctx = Engine.Ctx.with_domains 1 ctx in
  Parwork.map ~domains:(kind.fanout ctx)
    (fun v -> kind.search split_ctx ~honest:(Utility.of_vertex g d v) g v)
    (Array.init (Graph.n g) Fun.id)
  |> Array.fold_left (keep_best kind) None
  |> Option.get

let best_attack_exact ?ctx ?budget g = fan_out exact_kind ?ctx ?budget g

let best_attack ?ctx ?budget g =
  let ctx = Engine.Ctx.get ctx in
  match ctx.Engine.Ctx.sweep with
  | Engine.Grid -> fan_out grid_kind ~ctx ?budget g
  | Engine.Exact -> (best_attack_exact ~ctx ?budget g).witness

let best_attack_k ?ctx ?budget g =
  let ctx = Engine.Ctx.get ctx in
  if Int.equal ctx.Engine.Ctx.identities 2 then
    kattack_of_attack g (best_attack ~ctx ?budget g)
  else fan_out (kway_kind ctx) ~ctx ?budget g

type progress = {
  best : attack option;
  best_exact : exact_attack option;
  best_k : kattack option;
  completed : int;
  total : int;
  status : (unit, Ringshare_error.t) result;
}

let ckpt_kind = "best-attack"

(* The checkpointed walk of the same maximum: vertices in order, the
   checkpoint rewritten after each one, the best-so-far kept when the
   budget trips.  Unlike the fan-out, vertices stay sequential; the
   context's domains parallelise each vertex's search instead, which is
   bit-identical to the sequential search — so kill/resume determinism
   holds.  Returns the best, the vertices completed and the status. *)
let scan kind ~ctx ?checkpoint ~resume g =
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let total = Graph.n g in
  let sweep = ctx.Engine.Ctx.sweep in
  let identities = ctx.Engine.Ctx.identities in
  let digest = Digest.to_hex (Digest.string (Serial.to_string g)) in
  let start, best0 =
    if not resume then (0, None)
    else
      match checkpoint with
      | None ->
          Ringshare_error.(
            error
              (Invalid_input
                 "Incentive.best_attack_within: resume requires a checkpoint \
                  path"))
      | Some path when not (Sys.file_exists path) -> (0, None)
      | Some path -> (
          match Checkpoint.load ~path ~kind:ckpt_kind with
          | Error e -> Ringshare_error.error e
          | Ok fields ->
              if not (String.equal (Checkpoint.field fields "graph") digest)
              then
                Ringshare_error.(
                  error
                    (Invalid_input
                       "checkpoint was written for a different graph"))
              else begin
                (* pre-exact-sweep checkpoints carry no sweep marker and
                   were necessarily written by the grid search *)
                let ck_sweep =
                  match List.assoc_opt "sweep" fields with
                  | Some s -> s
                  | None -> "grid"
                in
                if not (String.equal ck_sweep (Engine.sweep_name sweep)) then
                  Ringshare_error.(
                    error
                      (Invalid_input
                         (Printf.sprintf
                            "checkpoint was written with sweep %s, resumed \
                             with %s"
                            ck_sweep
                            (Engine.sweep_name sweep))));
                (* pre-k-way checkpoints carry no identities marker and
                   were necessarily written by the 2-split search *)
                let ck_k =
                  Checkpoint.legacy_int_field ~default:2 fields "identities"
                in
                if ck_k <> identities then
                  Ringshare_error.(
                    error
                      (Invalid_input
                         (Printf.sprintf
                            "checkpoint was written with identities %d, \
                             resumed with %d"
                            ck_k identities)));
                (Checkpoint.int_field fields "next", kind.of_fields fields)
              end)
  in
  let save_ckpt next best =
    match checkpoint with
    | None -> ()
    | Some path ->
        Checkpoint.save ~path ~kind:ckpt_kind
          (("graph", digest)
          :: ("total", string_of_int total)
          :: ("next", string_of_int next)
          :: ("sweep", Engine.sweep_name sweep)
          :: ("identities", string_of_int identities)
          :: kind.fields best)
  in
  let best = ref best0 in
  let completed = ref start in
  let status = ref (Ok ()) in
  (* snapshot up front so an interruption before the first vertex completes
     still leaves a resumable (graph-bound) checkpoint on disk *)
  save_ckpt start best0;
  (* honest utilities shared across vertices, as in the fan-out; lazy so
     a fully-completed resume does no work and solver errors are still
     captured by the loop below *)
  let d =
    lazy
      (Obs.Counter.add c_honest_shared total;
       Decompose.compute ~ctx:(Engine.Ctx.without_budget ctx) g)
  in
  (try
     for v = start to total - 1 do
       Budget.check budget;
       let honest = Utility.of_vertex g (Lazy.force d) v in
       best := keep_best kind !best (kind.search ctx ~honest g v);
       incr completed;
       save_ckpt !completed !best
     done
   with
  | Budget.Exhausted { steps; elapsed } ->
      status := Error (Ringshare_error.Budget_exhausted { steps; elapsed })
  | Ringshare_error.Error e -> status := Error e);
  (!best, !completed, !status)

let best_attack_within ?ctx ?budget ?checkpoint ?(resume = false) g =
  if Graph.n g = 0 then invalid_arg "Incentive.best_attack: empty graph";
  (* a checkpointed scan is no single request: it runs cache-free *)
  let ctx = cache_free_ctx (with_budget_arg budget (Engine.Ctx.get ctx)) in
  let scan kind report =
    let best, completed, status = scan kind ~ctx ?checkpoint ~resume g in
    let best, best_exact, best_k = report best in
    { best; best_exact; best_k; completed; total = Graph.n g; status }
  in
  if ctx.Engine.Ctx.identities >= 3 then
    scan (kway_kind ctx) (fun k -> (None, None, k))
  else
    match ctx.Engine.Ctx.sweep with
    | Engine.Grid -> scan grid_kind (fun a -> (a, None, None))
    | Engine.Exact ->
        scan exact_kind (fun e ->
            (Option.map (fun e -> e.witness) e, e, None))

let ratio_of_attack (a : attack) = Q.to_float a.ratio
