(* Exact decision of [∀ x ∈ [lo, hi]. p(x) ≥ 0] by Sturm root counting:
   endpoint signs plus a sign sample between consecutive roots.  A test
   oracle, independent of the piece maxima that [Symbolic] certifies
   Theorem 8 with. *)

module Q = Rational

(* distinct roots of p strictly inside (l, h), for l < h *)
let interior_roots p l h =
  Poly.count_roots p ~lo:l ~hi:h - if Q.is_zero (Poly.eval p h) then 1 else 0

(* Sign of p immediately to the right of point v: the sign of the first
   non-vanishing derivative at v (the multiplicity-order Taylor term). *)
let sign_right p v =
  let rec go q =
    let s = Q.sign (Poly.eval q v) in
    if s <> 0 then s
    else
      let q' = Poly.derive q in
      if Poly.is_zero q' then 0 else go q'
  in
  go p

(* Sign immediately to the left of v: k-th derivative contributes
   (x - v)^k with sign (-1)^k on the left. *)
let sign_left p v =
  let rec go q k =
    let s = Q.sign (Poly.eval q v) in
    if s <> 0 then if k land 1 = 0 then s else -s
    else
      let q' = Poly.derive q in
      if Poly.is_zero q' then 0 else go q' (k + 1)
  in
  go p 0

(* A probe point strictly inside (l, h) where p does not vanish; exists
   because p has finitely many roots, so one of deg+2 equispaced interior
   candidates is a non-root. *)
let probe p l h =
  let parts = Poly.degree p + 2 in
  let step = Q.div_int (Q.sub h l) (parts + 1) in
  let rec go k =
    if k > parts then invalid_arg "Sign_oracle.non_negative_on: no probe point"
    else
      let t = Q.add l (Q.mul_int step k) in
      if Q.sign (Poly.eval p t) <> 0 then t else go (k + 1)
  in
  go 1

let non_negative_on p ~lo ~hi =
  if Q.compare lo hi > 0 then
    invalid_arg "Sign_oracle.non_negative_on: empty interval";
  if Poly.is_zero p then true
  else if Q.equal lo hi then Q.sign (Poly.eval p lo) >= 0
  else if Poly.degree p = 0 then Q.sign (Poly.eval p lo) >= 0
  else begin
    (* decide p >= 0 on [l, h], endpoint values known to be >= 0 *)
    let rec decide l h =
      let interior = interior_roots p l h in
      if interior = 0 then
        (* constant sign on the open interval, readable off either
           endpoint's one-sided sign *)
        sign_right p l > 0 || sign_left p h > 0
        || (Q.sign (Poly.eval p l) > 0 || Q.sign (Poly.eval p h) > 0)
      else if interior = 1 then
        (* one interior root r: signs on (l, r) and (r, h) are the
           one-sided signs at the endpoints *)
        sign_right p l > 0 && sign_left p h > 0
      else begin
        (* split at a non-root point; each side has fewer interior roots *)
        let t = probe p l h in
        if Q.sign (Poly.eval p t) < 0 then false else decide l t && decide t h
      end
    in
    if Q.sign (Poly.eval p lo) < 0 || Q.sign (Poly.eval p hi) < 0 then false
    else decide lo hi
  end
