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

(* Every candidate boundary is a degree-≤2 polynomial kept as an integer
   coefficient triple (a, b, c) for a·y² + b·y + c in the scaled
   parameter y = D·x (D a common denominator of the weights, the total
   and the sample), so every coefficient and every evaluation is a
   [Bigint] — no rational normalisation on the hot path. *)
module B = Bigint

let bzero3 = (B.zero, B.zero, B.zero)
let badd3 (a1, b1, c1) (a2, b2, c2) = (B.add a1 a2, B.add b1 b2, B.add c1 c2)
let bsub3 (a1, b1, c1) (a2, b2, c2) = (B.sub a1 a2, B.sub b1 b2, B.sub c1 c2)
let beval3 (a, b, c) py = B.add (B.mul (B.add (B.mul a py) b) py) c

(* A scaled affine function of y, (const·D) + slope·y, as a triple. *)
let blin (c, s) = (B.zero, B.of_int s, c)

(* Product of two scaled affine functions of y. *)
let bamul (c1, s1) (c2, s2) =
  ( B.of_int (s1 * s2),
    B.add (B.mul_int c1 s2) (B.mul_int c2 s1),
    B.mul c1 c2 )

(* The primitive form of a non-constant triple: the content gcd divided
   out and the leading coefficient positive.  Scalar multiples share
   their roots, so they share one primitive form. *)
let primitive (a, b, c) =
  let g = B.gcd (B.gcd a b) c in
  let g = if B.sign a < 0 || (B.is_zero a && B.sign b < 0) then B.neg g else g in
  if B.equal g B.one then (a, b, c) else (B.div a g, B.div b g, B.div c g)

(* Hash set over primitive triples: one entry per distinct candidate. *)
module BTriple = Hashtbl.Make (struct
  type t = B.t * B.t * B.t

  let equal (a1, b1, c1) (a2, b2, c2) =
    B.equal a1 a2 && B.equal b1 b2 && B.equal c1 c2

  let hash (a, b, c) = (((B.hash a * 31) + B.hash b) * 31) + B.hash c
end)

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
   recording kernel instance, and [(awb, awc)] the stage pair's weights
   (B, C) as scaled affine functions of y.

   A component that holds neither identity, at a stage whose pair
   weights do not move with x, has constant costs: every difference it
   could record is a constant, which has no root, so its DP is not
   replayed at all. *)
let stage_dp_candidates ~record ~solve ~scale ~py path ~v1 ~v2 ~total ~mask
    (((_, sb) as awb), ((_, sc) as awc)) =
  let pair_moves = sb <> 0 || sc <> 0 in
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
      if pair_moves || Array.exists (fun u -> u = v1 || u = v2) verts then begin
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
          forced
      end)
    (Chain_fast.components path ~mask)

(* distinct non-constant DP comparison differences (primitive forms)
   recorded per [exact_candidates] call, summed: the stage replay's
   work, as an exact count *)
let c_dp_candidates = Obs.Counter.make ~subsystem:"breakpoints" "dp_candidates"

(* candidates whose real roots are extracted as surds by [Qx.roots2],
   summed over pieces *)
let c_root_extractions =
  Obs.Counter.make ~subsystem:"breakpoints" "root_extractions"

(* The candidate family of one sample, in y-coordinates: [d] is D, [py]
   and [ytot] the sample and the total, and [cands] the distinct
   primitive non-constant triples. *)
type candidates = {
  d : B.t;
  py : B.t;
  ytot : B.t;
  cands : (B.t * B.t * B.t) list;
}

(* Candidate boundary polynomials of a structure's validity interval
   around the rational sample [p]: the decomposition is [structure]
   exactly while
     - wb_i = 0, wc_i = 0        (pair weight degenerating),
     - wc_i - wb_i = 0           (alpha_i reaching 1),
     - wc_i*wb_{i+1} - wc_{i+1}*wb_i = 0   (adjacent alphas crossing)
   all keep their sign, together with the stage-DP differences from
   [stage_dp_candidates] (which make the family complete — see there).
   A constant keeps its sign everywhere, so only triples with a nonzero
   y or y² coefficient are kept. *)
let exact_candidates path ~v1 ~v2 ~total ~p (structure : Decompose.t) =
  (* the common denominator D putting the family in integer
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
  (* each pair's weights (B, C) in the scaled affine view:
     value·D = (const·D) + slope·y *)
  let pairs =
    let aff set =
      let c, s = affine_of_set path ~v1 ~v2 ~total set in
      (scale c, s)
    in
    List.map
      (fun (pr : Decompose.pair) -> (aff pr.Decompose.b, aff pr.Decompose.c))
      structure
  in
  (* The DP records one difference per comparison — hundreds of
     thousands on big paths, with heavy duplication (the same gap is
     re-compared along the path).  Dedupe at record time by primitive
     form, before any of them reaches the root selection. *)
  let cands = ref [] in
  let seen = BTriple.create 512 in
  let record ((a, b, _) as q) =
    if not (B.is_zero a && B.is_zero b) then begin
      let q = primitive q in
      if not (BTriple.mem seen q) then begin
        BTriple.add seen q ();
        cands := q :: !cands
      end
    end
  in
  (* The stage solves replayed with every partial cost carried as a
     quadratic in y: the [Chain_fast] DP kernel, its costs multiplied
     through by wb_i so the stage charge −α_i·w_u becomes the polynomial
     −wc_i·w_u.  Comparisons are resolved by exact evaluation at [py]
     (ties keep the earlier branch) and every comparison difference is
     recorded.  Each cost carries its value at [py] beside its
     coefficients, so a comparison never re-evaluates a polynomial. *)
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
  Obs.Span.with_ "stage_replay" (fun () ->
      let mask = ref (Graph.full_mask path) in
      List.iter2
        (fun (pr : Decompose.pair) weights ->
          stage_dp_candidates ~record ~solve:Dp.solve ~scale ~py path ~v1 ~v2
            ~total ~mask:!mask weights;
          mask := Vset.diff !mask (Vset.union pr.Decompose.b pr.Decompose.c))
        structure pairs);
  Obs.Counter.add c_dp_candidates (BTriple.length seen);
  List.iter
    (fun (b, c) ->
      record (blin b);
      record (blin c);
      record (bsub3 (blin c) (blin b)))
    pairs;
  let rec adjacent = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
        record (bsub3 (bamul c1 b2) (bamul c2 b1));
        adjacent rest
    | _ -> ()
  in
  adjacent pairs;
  { d; py; ytot = scale total; cands = !cands }

(* Nearest-root selection, first pass, in integers only.  A real root of
   a primitive triple is bracketed in y as [lo/den, hi/den] (den > 0);
   an irrational root's bracket comes from the integer square root of
   the discriminant and has width 1/(2a). *)
type bracket = { lo : B.t; hi : B.t; den : B.t }

(* n1/d1 ≤ n2/d2 for positive denominators *)
let qle (n1, d1) (n2, d2) = B.compare (B.mul n1 d2) (B.mul n2 d1) <= 0

(* The nearest real root on each side of the sample [py], bracketed, as
   [Some (left, right)]; [None] when [py] is itself a root.  Which side
   a root lies on follows from the signs of f(py) and f'(py) = 2a·py + b:
   with a > 0, f(py) < 0 puts one root on each side, and f(py) > 0 puts
   both on the side f' points away from. *)
let nearest_brackets py ((a, b, c) as q) =
  let fp = B.sign (beval3 q py) in
  if fp = 0 then None
  else if B.is_zero a then
    (* b > 0: f increases through its root −c/b *)
    let r = Some { lo = B.neg c; hi = B.neg c; den = b } in
    Some (if fp < 0 then (None, r) else (r, None))
  else
    let disc = B.sub (B.mul b b) (B.mul (B.mul_int a 4) c) in
    if B.sign disc < 0 then Some (None, None)
    else
      let s = Qx.isqrt disc in
      let e = if B.equal (B.mul s s) disc then B.zero else B.one in
      let den = B.mul_int a 2 and nb = B.neg b in
      (* r− ∈ [(−b−s−e)/2a, (−b−s)/2a], r+ ∈ [(−b+s)/2a, (−b+s+e)/2a] *)
      let rminus = { lo = B.sub (B.sub nb s) e; hi = B.sub nb s; den }
      and rplus = { lo = B.add nb s; hi = B.add (B.add nb s) e; den } in
      if fp < 0 then Some (Some rminus, Some rplus)
      else if B.sign (B.add (B.mul den py) b) > 0 then Some (Some rplus, None)
      else Some (None, Some rminus)

(* All real roots in (0, w) of the candidates that can bound the piece
   around the sample, or [None] when the sample sits on a root.  Only
   the nearest root on each side of the sample bounds the piece, so the
   first pass keeps a candidate only when its nearest-root bracket
   reaches U (the least upper bracket end on the right, capped at D·w)
   or L (the greatest lower end on the left, floored at 0).  The tests
   are non-strict: every candidate with a root equal to the bound
   survives, which matters because [Qx] keeps d only non-square, not
   square-free ([sqrt_q 8] prints [0+1*sqrt(8)], twice [sqrt_q 2] prints
   [0+2*sqrt(2)]), and the first of equal roots in the sorted order
   below is the one a piece reports.  The second pass is the exact
   route on the survivors: x-normalise (leading coefficient 1, roots
   unchanged), [sort_uniq], [Qx.roots2]. *)
let candidate_roots ~w { d; py; ytot; cands } =
  let exception On_root in
  match
    Obs.Span.with_ "root_select" (fun () ->
        List.map
          (fun q ->
            match nearest_brackets py q with
            | None -> raise On_root
            | Some sides -> (q, sides))
          cands)
  with
  | exception On_root -> None
  | bracketed ->
      let u = ref (ytot, B.one) and l = ref (B.zero, B.one) in
      List.iter
        (fun (_, (left, right)) ->
          Option.iter
            (fun r -> if not (qle !u (r.hi, r.den)) then u := (r.hi, r.den))
            right;
          Option.iter
            (fun r -> if not (qle (r.lo, r.den) !l) then l := (r.lo, r.den))
            left)
        bracketed;
      let reaches (left, right) =
        (match right with Some r -> qle (r.lo, r.den) !u | None -> false)
        || match left with Some r -> qle !l (r.hi, r.den) | None -> false
      in
      let survivors =
        List.filter_map
          (fun (q, sides) -> if reaches sides then Some q else None)
          bracketed
      in
      Obs.Span.with_ "root_extract" @@ fun () ->
      (* back to x-coordinates: a·y² + b·y + c with y = D·x is
         a·D²·x² + b·D·x + c *)
      let normalise (a, b, c) =
        if B.is_zero a then (Q.zero, Q.one, Q.make c (B.mul b d))
        else
          let ad = B.mul a d in
          (Q.one, Q.make b ad, Q.make c (B.mul ad d))
      in
      let cmp3 (a1, b1, c1) (a2, b2, c2) =
        match Q.compare a1 a2 with
        | 0 -> ( match Q.compare b1 b2 with 0 -> Q.compare c1 c2 | n -> n)
        | n -> n
      in
      let survivors = List.sort_uniq cmp3 (List.map normalise survivors) in
      Obs.Counter.add c_root_extractions (List.length survivors);
      Some
        (List.concat_map
           (fun (a, b, c) ->
             List.filter
               (fun r -> Qx.compare_q r Q.zero > 0 && Qx.compare_q r w < 0)
               (Qx.roots2 ~a ~b ~c))
           survivors)

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
  match candidate_roots ~w cands with
  | None ->
      (* the sample itself sits on a boundary: a degenerate point piece *)
      { xlo = Qx.of_q p; xhi = Qx.of_q p; sample = p; structure }
  | Some roots ->
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
