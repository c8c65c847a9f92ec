module Q = Rational

type interval = {
  lo : Qx.t;
  hi : Qx.t;
  num : Poly.t;
  den : Poly.t;
  best_here : Qx.t;
  bound_holds : bool;
}

type report = {
  v : int;
  honest : Q.t;
  intervals : interval list;
  certified : bool;
  best_found : Qx.t;
}

(* Weight of a vertex set as a linear polynomial in w1 (the first
   identity's weight), given the two identity ids and the total W. *)
let set_weight_poly g ~v1 ~v2 ~total set =
  let const = ref Q.zero and slope = ref Q.zero in
  Vset.iter
    (fun u ->
      if u = v1 then slope := Q.add !slope Q.one
      else if u = v2 then begin
        (* v2 carries W - w1 *)
        const := Q.add !const total;
        slope := Q.sub !slope Q.one
      end
      else const := Q.add !const (Graph.weight g u))
    set;
  Poly.linear !const !slope

(* One identity's utility as a rational function (numerator, denominator)
   of w1, inside a fixed decomposition structure.  [v1] carries w1, [v2]
   carries total − w1; any other id keeps its fixed graph weight. *)
let identity_utility g ~v1 ~v2 ~total structure id =
  let p = Decompose.pair_of structure id in
  let own =
    if id = v1 then Poly.x
    else if id = v2 then Poly.linear total (Q.of_int (-1))
    else Poly.constant (Graph.weight g id)
  in
  if Vset.equal p.Decompose.b p.Decompose.c then
    (* self pair (alpha = 1): the identity receives its own weight *)
    (own, Poly.one)
  else begin
    let wb = set_weight_poly g ~v1 ~v2 ~total p.Decompose.b in
    let wc = set_weight_poly g ~v1 ~v2 ~total p.Decompose.c in
    if Vset.mem id p.Decompose.b then
      (* U = w_id * w(C)/w(B) *)
      if Poly.is_zero wb then (Poly.zero, Poly.one)
      else (Poly.mul own wc, wb)
    else if Poly.is_zero wc then (Poly.zero, Poly.one)
    else (Poly.mul own wb, wc)
  end

let utility_function g ~v ~structure ~v2 =
  let total = Graph.weight g v in
  let n1, d1 = identity_utility g ~v1:v ~v2 ~total structure v in
  let n2, d2 = identity_utility g ~v1:v ~v2 ~total structure v2 in
  ( Poly.add (Poly.mul n1 d2) (Poly.mul n2 d1),
    Poly.mul d1 d2 )

(* Σ_j U_{ids.(j)} over a common denominator, on a slice where only the
   weights of [v1] (= x) and [v2] (= total − x) vary and every other
   vertex — including the remaining identities — keeps the weight it
   has in [path].  [path] must be the materialised split graph, not the
   ring: the fixed identities' ids only exist there. *)
let slice_utility_function path ~v1 ~v2 ~total ~structure ~ids =
  Array.fold_left
    (fun (n_acc, d_acc) id ->
      let n, d = identity_utility path ~v1 ~v2 ~total structure id in
      (Poly.add (Poly.mul n_acc d) (Poly.mul n d_acc), Poly.mul d_acc d))
    (Poly.zero, Poly.one) ids

(* Horner evaluation in the quadratic-surd field; [Poly.coeffs] is
   ascending. *)
let poly_eval_qx p x =
  List.fold_right
    (fun c acc -> Qx.add_q (Qx.mul acc x) c)
    (Poly.coeffs p) (Qx.of_q Q.zero)

let closed_form_candidates ~num ~den ~lo ~hi =
  let value x =
    let d = poly_eval_qx den x in
    if Qx.sign d = 0 then None else Some (Qx.div (poly_eval_qx num x) d)
  in
  (* interior critical points: roots of N'·D − N·D', which the
     degree-≤2 derivative theorem (DESIGN §16) trims to a quadratic *)
  let e =
    Poly.sub
      (Poly.mul (Poly.derive num) den)
      (Poly.mul num (Poly.derive den))
  in
  if Poly.degree e > 2 then
    invalid_arg
      "Symbolic.closed_form_candidates: derivative numerator exceeds degree 2";
  let interior =
    if Poly.is_zero e then []
    else
      List.filter
        (fun r -> Qx.compare lo r < 0 && Qx.compare r hi < 0)
        (Qx.roots2 ~a:(Poly.coeff e 2) ~b:(Poly.coeff e 1) ~c:(Poly.coeff e 0))
  in
  List.map (fun x -> (x, value x)) ((lo :: interior) @ [ hi ])

let verify_theorem8 ?ctx g ~v =
  let ctx = Engine.Ctx.get ctx in
  let honest = Sybil.honest_utility ~ctx g ~v in
  let two_h = Q.mul_int honest 2 in
  let mech w1 = Sybil.split_utility ~ctx g ~v ~w1 in
  let error = ref None in
  let interval (p : Breakpoints.exact_piece) =
    let lo = p.Breakpoints.xlo and hi = p.Breakpoints.xhi in
    let num, den, best_here =
      if Qx.equal lo hi then
        (* point piece: its structure lives at one rational point *)
        let u = mech p.Breakpoints.sample in
        (Poly.constant u, Poly.one, Qx.of_q u)
      else begin
        let num, den =
          utility_function g ~v ~structure:p.Breakpoints.structure
            ~v2:(Graph.n g)
        in
        (* consistency: the rational function must agree exactly with
           the mechanism at interior rational points *)
        let consistent pt =
          let dv = Poly.eval den pt in
          Q.sign dv > 0 && Q.equal (Q.div (Poly.eval num pt) dv) (mech pt)
        in
        let sample = p.Breakpoints.sample in
        if
          not
            (consistent sample
            && consistent (Qx.rational_between lo (Qx.of_q sample)))
        then
          error :=
            Some
              (Format.asprintf "symbolic utility mismatch on [%a, %a]" Qx.pp
                 lo Qx.pp hi);
        (* the exact maximum of N/D over the closed piece: U extends
           continuously to the boundary (Theorem 10), so where D vanishes
           at an endpoint — a root of D, hence rational — the
           mechanism's value there is the closed form's limit *)
        let values =
          List.map
            (fun (x, u) ->
              match u with
              | Some u -> u
              | None -> Qx.of_q (mech (Qx.to_q_exn x)))
            (closed_form_candidates ~num ~den ~lo ~hi)
        in
        (num, den, List.fold_left Qx.max (List.hd values) (List.tl values))
      end
    in
    {
      lo;
      hi;
      num;
      den;
      best_here;
      bound_holds = Qx.compare_q best_here two_h <= 0;
    }
  in
  let intervals =
    List.map interval (Breakpoints.exact_split_pieces ~ctx g ~v)
  in
  match !error with
  | Some m -> Error m
  | None ->
      Ok
        {
          v;
          honest;
          intervals;
          certified = List.for_all (fun iv -> iv.bound_holds) intervals;
          best_found =
            List.fold_left
              (fun acc iv -> Qx.max acc iv.best_here)
              (Qx.of_q honest) intervals;
        }
