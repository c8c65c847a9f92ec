module Q = Rational

type event = {
  lo : Q.t;
  hi : Q.t;
  before : Decompose.t;
  after : Decompose.t;
}

let decomposition_at ?ctx g ~v ~x =
  Decompose.compute ?ctx (Graph.with_weight g v x)

(* Generic scan of a decomposition-valued function over [0, span]. *)
let scan_fn ~grid ~tolerance ~span decomp =
  if Q.sign span <= 0 then []
  else begin
    let rec bisect lo dlo hi dhi acc =
      (* invariant: dlo <> dhi *)
      if Q.compare (Q.sub hi lo) tolerance <= 0 then
        { lo; hi; before = dlo; after = dhi } :: acc
      else
        let mid = Q.div_int (Q.add lo hi) 2 in
        let dmid = decomp mid in
        if Decompose.same_structure dlo dmid then bisect mid dmid hi dhi acc
        else if Decompose.same_structure dmid dhi then bisect lo dlo mid dmid acc
        else
          (* Two separate changes inside the cell: recurse on both halves,
             lower half first so the accumulator stays in scan order. *)
          bisect mid dmid hi dhi (bisect lo dlo mid dmid acc)
    in
    let step = Q.div_int span grid in
    let rec walk i x dx acc =
      if i > grid then List.rev acc
      else
        let x' = if i = grid then span else Q.mul_int step i in
        let dx' = decomp x' in
        let acc = if Decompose.same_structure dx dx' then acc else bisect x dx x' dx' acc in
        walk (i + 1) x' dx' acc
    in
    let d0 = decomp Q.zero in
    walk 1 Q.zero d0 []
  end

let scan ?ctx ?tolerance g ~v =
  let ctx = Engine.Ctx.get ctx in
  let w = Graph.weight g v in
  if Q.is_zero w then []
  else
    let tolerance =
      match tolerance with
      | Some t -> t
      | None -> Q.div_int w (1 lsl 20)
    in
    scan_fn ~grid:ctx.Engine.Ctx.grid ~tolerance ~span:w (fun x ->
        decomposition_at ~ctx g ~v ~x)

let scan_split ?ctx ?tolerance g ~v =
  let ctx = Engine.Ctx.get ctx in
  let w = Graph.weight g v in
  if Q.is_zero w then []
  else
    let tolerance =
      match tolerance with
      | Some t -> t
      | None -> Q.div_int w (1 lsl 20)
    in
    let decomp w1 =
      let s = Sybil.split_free g ~v ~w1 ~w2:(Q.sub w w1) in
      Decompose.compute ~ctx s.Sybil.path
    in
    scan_fn ~grid:ctx.Engine.Ctx.grid ~tolerance ~span:w decomp

(* ------------------------------------------------------------------ *)
(* Exact split-parameter pieces and events (DESIGN §16)                *)
(* ------------------------------------------------------------------ *)

type exact_piece = {
  xlo : Qx.t;
  xhi : Qx.t;
  sample : Q.t;
  structure : Decompose.t;
}

type exact_event = { at : Qx.t; left : Decompose.t; right : Decompose.t }

(* Weight of [set] in the split path as an affine function [const +
   slope*x] of the split parameter x = w(v1): every vertex other than
   the two identities keeps its weight, v1 carries x and v2 carries
   total - x. *)
let affine_of_set path ~v1 ~v2 ~total set =
  let const =
    List.fold_left
      (fun acc u ->
        if u = v1 || u = v2 then acc else Q.add acc (Graph.weight path u))
      (if Vset.mem v2 set then total else Q.zero)
      (Vset.elements set)
  in
  let slope =
    (if Vset.mem v1 set then 1 else 0) - if Vset.mem v2 set then 1 else 0
  in
  (const, slope)

(* Degree-<=2 polynomials in x, as coefficient triples (a, b, c) for
   a*x^2 + b*x + c. *)
let sub3 (a1, b1, c1) (a2, b2, c2) =
  (Q.sub a1 a2, Q.sub b1 b2, Q.sub c1 c2)

let lin (c, s) = (Q.zero, Q.of_int s, c)

(* Product of two affine functions. *)
let amul (c1, s1) (c2, s2) =
  ( Q.of_int (s1 * s2),
    Q.add (Q.mul_int c1 s2) (Q.mul_int c2 s1),
    Q.mul c1 c2 )

(* The stage solves replayed with every partial cost carried as a
   quadratic in x: the [Chain_fast] DP kernel instantiated per
   [exact_candidates] call, its costs multiplied through by wb_i so the
   stage charge −α_i·w_u becomes the polynomial −wc_i·w_u.  Comparisons
   are resolved by exact evaluation at the rational sample [p] (ties keep
   the earlier branch) and every comparison difference is recorded.

   The DP runs in the scaled parameter y = D·x (D a common denominator
   of the weights, the total and the sample), so every coefficient and
   every evaluation is a [Bigint] — no rational normalisation on the
   hot path.  Each cost carries its value at the scaled sample beside
   its coefficients, so a comparison never re-evaluates a polynomial. *)
module B = Bigint

let bzero3 = (B.zero, B.zero, B.zero)
let bis_zero3 (a, b, c) = B.is_zero a && B.is_zero b && B.is_zero c
let badd3 (a1, b1, c1) (a2, b2, c2) = (B.add a1 a2, B.add b1 b2, B.add c1 c2)
let bsub3 (a1, b1, c1) (a2, b2, c2) = (B.sub a1 a2, B.sub b1 b2, B.sub c1 c2)
let bneg3 (a, b, c) = (B.neg a, B.neg b, B.neg c)

(* Hash table over integer quadratic-coefficient triples, used to
   dedupe recorded DP comparison differences at record time. *)
module BTriple = Hashtbl.Make (struct
  type t = B.t * B.t * B.t

  let equal (a1, b1, c1) (a2, b2, c2) =
    B.equal a1 a2 && B.equal b1 b2 && B.equal c1 c2

  let hash (a, b, c) = (((B.hash a * 31) + B.hash b) * 31) + B.hash c
end)
let beval3 (a, b, c) py = B.add (B.mul (B.add (B.mul a py) b) py) c

(* Product of two affine functions of y with Bigint consts. *)
let bamul (c1, s1) (c2, s2) =
  ( B.of_int (s1 * s2),
    B.add (B.mul_int c1 s2) (B.mul_int c2 s1),
    B.mul c1 c2 )

(* Sensitivity analysis of one greedy stage.  The stage-i solve finds the
   maximal minimiser of w(Γ(S)) − α_i·w(S) over the masked subgraph — one
   4-state DP plus one forced-vertex probe per position, per component
   ([Chain_fast]).  While none of the comparison differences those DPs
   resolve changes sign, and none of the per-component minima or
   forced-vs-free gaps (which decide maximal-minimiser membership)
   crosses zero, every stage re-derives exactly the same pair, so the
   decomposition is constant.  The recorded roots are therefore a
   complete superset of the structure's event boundaries: basic shape
   conditions alone would miss a pair splitting when some proper subset's
   ratio crosses α_i, which only these DP gaps can see.  [solve] is the
   recording kernel instance. *)
let stage_dp_candidates ~record ~solve ~scale ~py path ~v1 ~v2 ~total ~mask
    (pair : Decompose.pair) =
  (* scaled affine view: value·D = (const·D) + slope·y with y = D·x;
     [scale q] is the (integer) numerator of q·D *)
  let aff set =
    let c, s = affine_of_set path ~v1 ~v2 ~total set in
    (scale c, s)
  in
  let awb = aff pair.Decompose.b and awc = aff pair.Decompose.c in
  let affv u =
    if u = v1 then (B.zero, 1)
    else if u = v2 then (scale total, -1)
    else (scale (Graph.weight path u), 0)
  in
  let cost q = (q, beval3 q py) in
  List.iter
    (fun (comp : Chain_fast.component) ->
      (* split graphs are paths, so masked components cannot be cycles *)
      assert (not comp.Chain_fast.cycle);
      let verts = comp.Chain_fast.verts in
      let k = Array.length verts in
      let gam = Array.init k (fun i -> cost (bamul (affv verts.(i)) awb))
      and sch = Array.init k (fun i -> cost (bamul (affv verts.(i)) awc)) in
      let (mq, _), forced =
        solve ~cycle:false ~gam:(Array.get gam) ~sch:(Array.get sch) k
      in
      (* the component minimum crossing zero changes which components
         achieve the stage ratio *)
      record mq;
      Array.iter
        (function None -> () | Some (fq, _) -> record (bsub3 fq mq))
        forced)
    (Chain_fast.components path ~mask)

(* distinct DP comparison differences recorded per [exact_candidates]
   call, summed: the stage replay's work, as an exact count *)
let c_dp_candidates = Obs.Counter.make ~subsystem:"breakpoints" "dp_candidates"

(* Candidate boundary polynomials of a structure's validity interval
   around the rational sample [p]: the decomposition is [structure]
   exactly while
     - wb_i = 0, wc_i = 0        (pair weight degenerating),
     - wc_i - wb_i = 0           (alpha_i reaching 1),
     - wc_i*wb_{i+1} - wc_{i+1}*wb_i = 0   (adjacent alphas crossing)
   all keep their sign, together with the stage-DP differences from
   [stage_dp_candidates] (which make the family complete — see there). *)
let exact_candidates path ~v1 ~v2 ~total ~p (structure : Decompose.t) =
  let aff = affine_of_set path ~v1 ~v2 ~total in
  let pairs =
    List.map
      (fun (p : Decompose.pair) -> (aff p.Decompose.b, aff p.Decompose.c))
      structure
  in
  let per_pair =
    List.concat_map
      (fun (b, c) -> [ lin b; lin c; sub3 (lin c) (lin b) ])
      pairs
  in
  let rec adjacent = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
        sub3 (amul c1 b2) (amul c2 b1) :: adjacent rest
    | _ -> []
  in
  (* the common denominator D putting the stage DP in integer
     coordinates y = D·x: weights, total and the sample all become
     integers under y *)
  let d =
    let lcm a b = B.mul (B.div a (B.gcd a b)) b in
    let acc = ref (lcm (Q.den total) (Q.den p)) in
    Array.iter (fun w -> acc := lcm !acc (Q.den w)) (Graph.weights path);
    !acc
  in
  let dq = Q.of_bigint d in
  let scale q =
    let s = Q.mul q dq in
    assert (B.equal (Q.den s) B.one);
    Q.num s
  in
  let py = scale p in
  (* The DP records one difference per comparison — hundreds of
     thousands on big paths, with heavy duplication (the same gap is
     re-compared along the path).  Dedupe at record time, in the
     integer domain, before any of them reaches the rational root
     machinery: sign-normalise and key by the printed triple. *)
  let dp_cands = ref [] in
  let seen = BTriple.create 512 in
  let record q =
    if not (bis_zero3 q) then begin
      let a, b, c = q in
      let flip =
        match B.sign a with 0 -> ( match B.sign b with 0 -> B.sign c | s -> s) | s -> s
      in
      let q = if flip < 0 then bneg3 q else q in
      if not (BTriple.mem seen q) then begin
        BTriple.add seen q ();
        dp_cands := q :: !dp_cands
      end
    end
  in
  let module Dp = Chain_fast.Make (struct
    type t = (B.t * B.t * B.t) * B.t

    let zero = (bzero3, B.zero)
    let add (q1, v1) (q2, v2) = (badd3 q1 q2, B.add v1 v2)
    let sub (q1, v1) (q2, v2) = (bsub3 q1 q2, B.sub v1 v2)

    let better a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some (qa, va), Some (qb, vb) ->
          record (bsub3 qa qb);
          if B.compare va vb <= 0 then a else b
  end) in
  let mask = ref (Graph.full_mask path) in
  List.iter
    (fun (pr : Decompose.pair) ->
      stage_dp_candidates ~record ~solve:Dp.solve ~scale ~py path ~v1 ~v2
        ~total ~mask:!mask pr;
      mask := Vset.diff !mask (Vset.union pr.Decompose.b pr.Decompose.c))
    structure;
  Obs.Counter.add c_dp_candidates (BTriple.length seen);
  (* back to x-coordinates: q'(y) = A·y² + B·y + C with y = D·x is
     A·D²·x² + B·D·x + C *)
  let d2 = B.mul d d in
  let dp_cands =
    List.rev_map
      (fun (a, b, c) ->
        (Q.of_bigint (B.mul a d2), Q.of_bigint (B.mul b d), Q.of_bigint c))
      !dp_cands
  in
  per_pair @ adjacent pairs @ dp_cands

(* All real roots of the candidates that fall strictly inside (0, w);
   identically-zero candidates (a pair with B = C has wc - wb == 0)
   impose no boundary.  The DP records arrive with heavy duplication
   (the same gap shows up once per probe), so the candidates are
   normalised — leading coefficient scaled to ±1, roots unchanged — and
   deduplicated before the surd extraction. *)
let candidate_roots ~w cands =
  let normalise (a, b, c) =
    if not (Q.is_zero a) then (Q.one, Q.div b a, Q.div c a)
    else if not (Q.is_zero b) then (Q.zero, Q.one, Q.div c b)
    else (Q.zero, Q.zero, if Q.is_zero c then Q.zero else Q.one)
  in
  let cmp3 (a1, b1, c1) (a2, b2, c2) =
    match Q.compare a1 a2 with
    | 0 -> ( match Q.compare b1 b2 with 0 -> Q.compare c1 c2 | n -> n)
    | n -> n
  in
  let cands = List.sort_uniq cmp3 (List.map normalise cands) in
  List.concat_map
    (fun (a, b, c) ->
      if Q.is_zero a && Q.is_zero b && Q.is_zero c then []
      else
        List.filter
          (fun r -> Qx.compare_q r Q.zero > 0 && Qx.compare_q r w < 0)
          (Qx.roots2 ~a ~b ~c))
    cands

(* The maximal interval around the rational sample [p] on which the
   decomposition of [path_at p] keeps the structure observed at [p].
   [path_at x] is the degree-≤2 graph with [v1] at weight [x] and [v2]
   at [total − x]; everything downstream ([exact_candidates], the stage
   DPs) only reads the two varying ids, the total and the fixed
   weights, so the same machinery serves both the Sybil split parameter
   and a generic two-vertex weight slice. *)
let exact_piece_at_core ~dctx ~path_at ~v1 ~v2 ~total:w p =
  let path = path_at p in
  let structure = Decompose.compute ~ctx:dctx path in
  let cands = exact_candidates path ~v1 ~v2 ~total:w ~p structure in
  let roots = candidate_roots ~w cands in
  if List.exists (fun r -> Qx.compare_q r p = 0) roots then
    (* the sample itself sits on a boundary: a degenerate point piece *)
    { xlo = Qx.of_q p; xhi = Qx.of_q p; sample = p; structure }
  else
    let xlo =
      List.fold_left
        (fun acc r ->
          if Qx.compare_q r p < 0 && Qx.compare acc r < 0 then r else acc)
        (Qx.of_q Q.zero) roots
    and xhi =
      List.fold_left
        (fun acc r ->
          if Qx.compare_q r p > 0 && Qx.compare acc r > 0 then r else acc)
        (Qx.of_q w) roots
    in
    { xlo; xhi; sample = p; structure }

(* The full piece enumeration over [0, total], generic in [path_at]
   (same contract as [exact_piece_at_core]); [cost] is the budget charge
   per sampled point. *)
let exact_pieces_core ~budget ~dctx ~cost ~path_at ~v1 ~v2 ~total:w =
  if Q.sign w <= 0 then []
  else begin
    (* Recursive cover of (a, b): sample once, carve out the sampled
       structure's full validity interval, recurse on what remains.
       Every recursion step discovers one piece (or a boundary point),
       so the work is proportional to the number of events, not to any
       grid resolution. *)
    let rec cover a b =
      if Qx.compare a b >= 0 then []
      else begin
        Budget.tick ~cost budget;
        let p = Qx.rational_between a b in
        let piece = exact_piece_at_core ~dctx ~path_at ~v1 ~v2 ~total:w p in
        let piece =
          { piece with xlo = Qx.max piece.xlo a; xhi = Qx.min piece.xhi b }
        in
        cover a piece.xlo @ (piece :: cover piece.xhi b)
      end
    in
    let pieces = cover (Qx.of_q Q.zero) (Qx.of_q w) in
    (* Merge touch points: a candidate root where the structure does not
       actually change (a double root grazing zero) splits the interval
       without an event; stitch such neighbours back together. *)
    let rec merge = function
      | a :: b :: rest
        when Qx.equal a.xhi b.xlo
             && Decompose.same_structure a.structure b.structure ->
          (* keep an interior sample: a degenerate piece absorbed into a
             wider neighbour must not leave the sample on the boundary *)
          let sample =
            if Qx.equal a.xlo a.xhi then b.sample else a.sample
          in
          merge ({ a with xhi = b.xhi; sample } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    let pieces = merge pieces in
    (* The decomposition exactly at a rational boundary can differ from
       both open sides (a merge event's merged pair lives only at the
       point); materialise those as degenerate point pieces.  Irrational
       boundaries cannot be sampled in Q — by the same token no rational
       scan can ever observe their at-point structure, so they stay
       implicit. *)
    let structure_at x =
      Budget.tick ~cost budget;
      Decompose.compute ~ctx:dctx (path_at x)
    in
    let point_piece t tq =
      let d = structure_at tq in
      { xlo = t; xhi = t; sample = tq; structure = d }
    in
    let rec interior = function
      | a :: (b :: _ as rest) ->
          let t = a.xhi in
          if Qx.is_rational t then begin
            let pt = point_piece t (Qx.to_q_exn t) in
            if
              Decompose.same_structure pt.structure a.structure
              || Decompose.same_structure pt.structure b.structure
            then a :: interior rest
            else a :: pt :: interior rest
          end
          else a :: interior rest
      | rest -> rest
    in
    let pieces = interior pieces in
    let pieces =
      match pieces with
      | first :: _ ->
          let p0 = point_piece (Qx.of_q Q.zero) Q.zero in
          if Decompose.same_structure p0.structure first.structure then pieces
          else p0 :: pieces
      | [] -> []
    in
    let rec with_last = function
      | [ last ] ->
          let pw = point_piece (Qx.of_q w) w in
          if Decompose.same_structure pw.structure last.structure then [ last ]
          else [ last; pw ]
      | a :: rest -> a :: with_last rest
      | [] -> []
    in
    with_last pieces
  end

let exact_split_pieces ?ctx g ~v =
  let ctx = Engine.Ctx.arm (Engine.Ctx.get ctx) in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let dctx = Engine.Ctx.without_budget ctx in
  let w = Graph.weight g v in
  if Q.sign w <= 0 then []
  else begin
    let n = Graph.n g in
    let path_at x = (Sybil.split_free g ~v ~w1:x ~w2:(Q.sub w x)).Sybil.path in
    exact_pieces_core ~budget ~dctx ~cost:(1 + n) ~path_at ~v1:v ~v2:n
      ~total:w
  end

let exact_slice_pieces ?ctx base ~v1 ~v2 ~total =
  let ctx = Engine.Ctx.arm (Engine.Ctx.get ctx) in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let dctx = Engine.Ctx.without_budget ctx in
  let n = Graph.n base in
  if v1 < 0 || v1 >= n || v2 < 0 || v2 >= n || v1 = v2 then
    invalid_arg "Breakpoints.exact_slice_pieces: bad varying vertex ids";
  if Q.sign total < 0 then
    invalid_arg "Breakpoints.exact_slice_pieces: negative total";
  if not (Graph.is_chain_graph base) then
    invalid_arg "Breakpoints.exact_slice_pieces: max degree > 2";
  if
    List.exists
      (fun (c : Chain_fast.component) -> c.Chain_fast.cycle)
      (Chain_fast.components base ~mask:(Graph.full_mask base))
  then
    (* the stage replay solves every component as a path
       ([stage_dp_candidates]); the split graphs it serves have none *)
    invalid_arg "Breakpoints.exact_slice_pieces: graph has a cycle component";
  let path_at x =
    Graph.with_weight (Graph.with_weight base v1 x) v2 (Q.sub total x)
  in
  exact_pieces_core ~budget ~dctx ~cost:(1 + n) ~path_at ~v1 ~v2 ~total

let exact_split_events ?ctx g ~v =
  let pieces = exact_split_pieces ?ctx g ~v in
  let rec events = function
    | a :: (b :: _ as rest) ->
        if Decompose.same_structure a.structure b.structure then events rest
        else { at = a.xhi; left = a.structure; right = b.structure }
            :: events rest
    | _ -> []
  in
  events pieces

let classify_event ev ~v =
  let pair_members d =
    let p = Decompose.pair_of d v in
    Vset.union p.b p.c
  in
  let members_before = pair_members ev.before
  and members_after = pair_members ev.after in
  (* The splitting vertex's own ids are stable: compare the vertex sets of
     the pair containing v on each side of the event. *)
  let count_pairs_covering d target =
    List.length
      (List.filter
         (fun (p : Decompose.pair) ->
           not (Vset.disjoint (Vset.union p.b p.c) target))
         d)
  in
  if Vset.subset members_after members_before
     && count_pairs_covering ev.after members_before = 2
  then `Split
  else if Vset.subset members_before members_after
          && count_pairs_covering ev.before members_after = 2
  then `Merge
  else `Other
