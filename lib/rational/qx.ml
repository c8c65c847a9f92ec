(* Exact quadratic surds q + r*sqrt(d).  See qx.mli for the contract.

   Everything here is exact integer/rational arithmetic: floors are
   computed by integer square root plus binary search, and comparisons
   by the classical repeated-squaring reduction, so the module stays
   inside the float-ban scope without exemptions (besides the reporting
   [to_float], mirroring Rational's own). *)

module Q = Rational

type t = { q : Q.t; r : Q.t; d : Bigint.t }
(* Invariants: d >= 0; r = 0 implies d = 0; d is not a perfect square
   when r <> 0; q is inf only when r = 0 (the "inf carrier"). *)

(* ------------------------------------------------------------------ *)
(* Integer square root                                                 *)
(* ------------------------------------------------------------------ *)

(* Newton's iteration x <- (x + n/x) / 2 from any start x0 >= sqrt n
   decreases strictly until it reaches floor (sqrt n), then stops
   decreasing.  It starts from the power of two above the radicand's
   bit-length bound, and runs on native ints when the radicand fits one
   (x + n/x then stays below 2^33). *)
let isqrt n =
  let sn = Bigint.sign n in
  if sn < 0 then invalid_arg "Qx.isqrt: negative input";
  if sn = 0 then Bigint.zero
  else
    let k = (Bigint.bits_bound n + 1) / 2 in
    match Bigint.to_int n with
    | Some m ->
        let rec go x =
          let x' = (x + (m / x)) / 2 in
          if x' >= x then x else go x'
        in
        Bigint.of_int (go (1 lsl k))
    | None ->
        let rec go x =
          let x' = Bigint.div (Bigint.add x (Bigint.div n x)) Bigint.two in
          if Bigint.compare x' x >= 0 then x else go x'
        in
        go (Bigint.pow Bigint.two k)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let mk_rational q = { q; r = Q.zero; d = Bigint.zero }

let make ~q ~r ~d =
  if Bigint.sign d < 0 then invalid_arg "Qx.make: negative radicand";
  if Q.is_inf r then invalid_arg "Qx.make: infinite surd coefficient";
  if Q.is_inf q && not (Q.is_zero r) then
    invalid_arg "Qx.make: infinite rational part with surd";
  if Q.is_zero r || Bigint.is_zero d then mk_rational q
  else
    let s = isqrt d in
    if Bigint.equal (Bigint.mul s s) d then
      mk_rational (Q.add q (Q.mul r (Q.of_bigint s)))
    else { q; r; d }

(* [make] for a result of arithmetic inside one field: [d] is the
   radicand of an operand with a nonzero surd, so it is already known
   not to be a perfect square and needs no [isqrt] test. *)
let in_field ~q ~r ~d = if Q.is_zero r then mk_rational q else { q; r; d }

let of_q q = mk_rational q
let of_int n = mk_rational (Q.of_int n)

let sqrt_q x =
  if Q.is_inf x then invalid_arg "Qx.sqrt_q: infinite input";
  if Q.sign x < 0 then invalid_arg "Qx.sqrt_q: negative input";
  if Q.is_zero x then mk_rational Q.zero
  else
    (* sqrt (n/d) = sqrt (n*d) / d *)
    let n = Q.num x and den = Q.den x in
    make ~q:Q.zero ~r:(Q.make Bigint.one den) ~d:(Bigint.mul n den)

(* ------------------------------------------------------------------ *)
(* Destruction                                                         *)
(* ------------------------------------------------------------------ *)

let is_rational t = Q.is_zero t.r
let to_q t = if Q.is_zero t.r then Some t.q else None

let to_q_exn t =
  if Q.is_zero t.r then t.q else invalid_arg "Qx.to_q_exn: irrational value"

let rational_part t = t.q
let surd_part t = (t.r, t.d)
let is_inf t = Q.is_zero t.r && Q.is_inf t.q

let[@lint.allow "float"] to_float t =
  if Q.is_zero t.r then Q.to_float t.q
  else Q.to_float t.q +. (Q.to_float t.r *. Float.sqrt (Bigint.to_float t.d))

(* ------------------------------------------------------------------ *)
(* Exact signs and comparison                                          *)
(* ------------------------------------------------------------------ *)

(* sign (s + b*sqrt d) for finite rationals; d > 0 non-square when
   b <> 0. *)
let sign2 s b d =
  if Q.is_zero b then Q.sign s
  else if Q.is_zero s then Q.sign b
  else if Q.sign s = Q.sign b then Q.sign s
  else
    (* opposite signs: |s| vs |b|*sqrt d, i.e. s^2 vs b^2*d *)
    let c = Q.compare (Q.mul s s) (Q.mul (Q.mul b b) (Q.of_bigint d)) in
    if c = 0 then 0 else if c > 0 then Q.sign s else Q.sign b

(* sign (s + b1*sqrt d1 + b2*sqrt d2), fully general (d1 and d2 may
   differ and even span compatible fields like 2 and 8): reduce the
   3-term sign to 2-term signs by squaring A = s + b1*sqrt d1 against
   B = b2*sqrt d2. *)
let sign3 s b1 d1 b2 d2 =
  if Q.is_zero b1 then sign2 s b2 d2
  else if Q.is_zero b2 then sign2 s b1 d1
  else if Bigint.equal d1 d2 then sign2 s (Q.add b1 b2) d1
  else
    let sa = sign2 s b1 d1 and sb = Q.sign b2 in
    if sa = 0 then sb
    else if sa = sb then sa
    else
      (* A and B have opposite (nonzero) signs: sign (A + B) follows the
         larger magnitude.  A^2 = (s^2 + b1^2 d1) + 2 s b1 sqrt d1 stays
         a 2-term expression; B^2 is rational. *)
      let a2_const = Q.add (Q.mul s s) (Q.mul (Q.mul b1 b1) (Q.of_bigint d1)) in
      let a2_surd = Q.mul (Q.mul Q.two s) b1 in
      let b2_const = Q.mul (Q.mul b2 b2) (Q.of_bigint d2) in
      let c = sign2 (Q.sub a2_const b2_const) a2_surd d1 in
      if c = 0 then 0 else if c > 0 then sa else sb

let sign t = if is_inf t then 1 else sign2 t.q t.r t.d

let compare a b =
  match (is_inf a, is_inf b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> sign3 (Q.sub a.q b.q) a.r a.d (Q.neg b.r) b.d

let equal a b = compare a b = 0
let compare_q t x = compare t (of_q x)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t =
  if Q.is_zero t.r then Q.hash t.q
  else
    (* Hash the minimal polynomial x^2 - 2q x + (q^2 - r^2 d): canonical
       across compatible-field representations of the same value. *)
    let trace = Q.mul Q.two t.q in
    let norm =
      Q.sub (Q.mul t.q t.q) (Q.mul (Q.mul t.r t.r) (Q.of_bigint t.d))
    in
    (Q.hash trace * 31) + Q.hash norm + 17

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* Bring two values with nonzero surd parts into a common field, or
   raise.  Rational operands adopt the other field trivially. *)
let promote a b =
  if Q.is_zero a.r then ({ a with d = b.d }, b)
  else if Q.is_zero b.r then (a, { b with d = a.d })
  else if Bigint.equal a.d b.d then (a, b)
  else
    let p = Bigint.mul a.d b.d in
    let s = isqrt p in
    if Bigint.equal (Bigint.mul s s) p then
      (* sqrt d2 = s / (d1 * sqrt d1) * d1 = (s/d1) * sqrt d1 / ... more
         directly: sqrt d2 = sqrt (d1 d2) / sqrt d1 = (s / d1) sqrt d1. *)
      (a, { b with r = Q.mul b.r (Q.make s a.d); d = a.d })
    else invalid_arg "Qx: incompatible fields"

let neg t = { q = Q.neg t.q; r = Q.neg t.r; d = t.d }

let add a b =
  if Q.is_zero a.r && Q.is_zero b.r then mk_rational (Q.add a.q b.q)
  else if Q.is_inf a.q || Q.is_inf b.q then raise Division_by_zero
  else
    let a, b = promote a b in
    in_field ~q:(Q.add a.q b.q) ~r:(Q.add a.r b.r) ~d:a.d

let sub a b =
  if Q.is_zero a.r && Q.is_zero b.r then mk_rational (Q.sub a.q b.q)
  else if Q.is_inf a.q || Q.is_inf b.q then raise Division_by_zero
  else
    let a, b = promote a b in
    in_field ~q:(Q.sub a.q b.q) ~r:(Q.sub a.r b.r) ~d:a.d

let mul a b =
  if Q.is_zero a.r && Q.is_zero b.r then mk_rational (Q.mul a.q b.q)
  else if Q.is_inf a.q || Q.is_inf b.q then raise Division_by_zero
  else
    let a, b = promote a b in
    let d = a.d in
    let q =
      Q.add (Q.mul a.q b.q) (Q.mul (Q.mul a.r b.r) (Q.of_bigint d))
    in
    let r = Q.add (Q.mul a.q b.r) (Q.mul a.r b.q) in
    in_field ~q ~r ~d

let inv t =
  if sign t = 0 then raise Division_by_zero;
  if Q.is_zero t.r then mk_rational (Q.inv t.q)
  else
    (* 1/(q + r sqrt d) = (q - r sqrt d) / (q^2 - r^2 d); the norm is
       nonzero because sqrt d is irrational here. *)
    let norm =
      Q.sub (Q.mul t.q t.q) (Q.mul (Q.mul t.r t.r) (Q.of_bigint t.d))
    in
    in_field ~q:(Q.div t.q norm) ~r:(Q.neg (Q.div t.r norm)) ~d:t.d

let div a b =
  if Q.is_zero a.r && Q.is_zero b.r then mk_rational (Q.div a.q b.q)
  else if Q.is_inf a.q || Q.is_inf b.q then raise Division_by_zero
  else mul a (inv b)

let add_q t x = add t (of_q x)
let mul_q t x = mul t (of_q x)
let div_q t x = div t (of_q x)

(* ------------------------------------------------------------------ *)
(* Quadratic roots                                                     *)
(* ------------------------------------------------------------------ *)

let roots2 ~a ~b ~c =
  if Q.is_zero a then
    if Q.is_zero b then
      if Q.is_zero c then invalid_arg "Qx.roots2: zero polynomial" else []
    else [ of_q (Q.neg (Q.div c b)) ]
  else
    let disc = Q.sub (Q.mul b b) (Q.mul (Q.mul (Q.of_int 4) a) c) in
    let sd = Q.sign disc in
    if sd < 0 then []
    else
      let two_a = Q.mul Q.two a in
      let base = Q.div (Q.neg b) two_a in
      if sd = 0 then [ of_q base ]
      else
        let off = div_q (sqrt_q disc) two_a in
        let r1 = add_q off base and r2 = add_q (neg off) base in
        if compare r1 r2 <= 0 then [ r1; r2 ] else [ r2; r1 ]

(* ------------------------------------------------------------------ *)
(* Exact floor and rational separation                                 *)
(* ------------------------------------------------------------------ *)

let floor_rat x =
  if Q.is_inf x then invalid_arg "Qx.floor: infinite value";
  let n = Q.num x and d = Q.den x in
  let q, r = Bigint.divmod n d in
  if Bigint.is_zero r || Bigint.sign n >= 0 then q else Bigint.pred q

let floor t =
  if Q.is_zero t.r then floor_rat t.q
  else begin
    let s = isqrt t.d in
    (* r*sqrt d lies strictly between r*s and r*(s+1) (order depending
       on the sign of r), so floor t lies in a width-|r|+2 integer
       window; exact binary search finishes it. *)
    let lo_rat, hi_rat =
      let at k = Q.add t.q (Q.mul t.r (Q.of_bigint k)) in
      if Q.sign t.r > 0 then (at s, at (Bigint.succ s))
      else (at (Bigint.succ s), at s)
    in
    let lo = ref (floor_rat lo_rat) and hi = ref (floor_rat hi_rat) in
    while Bigint.compare !lo !hi < 0 do
      (* mid = ceil ((lo + hi) / 2) = floor ((lo + hi + 1) / 2), in
         (lo, hi], so both branches shrink the window. *)
      let sum = Bigint.succ (Bigint.add !lo !hi) in
      let m, rem = Bigint.divmod sum Bigint.two in
      let mid = if Bigint.sign rem < 0 then Bigint.pred m else m in
      if compare_q t (Q.of_bigint mid) >= 0 then lo := mid
      else hi := Bigint.pred mid
    done;
    !lo
  end

let rational_between a b =
  if is_inf a || is_inf b then
    invalid_arg "Qx.rational_between: infinite endpoint";
  if compare a b >= 0 then invalid_arg "Qx.rational_between: empty interval";
  let rec go k =
    if k > 4096 then
      (* unreachable for any interval wider than 2^-4096 *)
      invalid_arg "Qx.rational_between: interval too narrow"
    else
      let scale = Bigint.pow Bigint.two k in
      (* float-lint audit: this is [Qx.floor] above — an exact Bigint
         floor of a surd, not Stdlib's float [floor]. *)
      let j = Bigint.succ ((floor [@lint.allow "float"]) (mul_q a (Q.of_bigint scale))) in
      let cand = Q.make j scale in
      if compare_q b cand > 0 then cand else go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Printing and parsing                                                *)
(* ------------------------------------------------------------------ *)

let to_string t =
  if Q.is_zero t.r then Q.to_string t.q
  else
    Printf.sprintf "%s%s%s*sqrt(%s)" (Q.to_string t.q)
      (if Q.sign t.r >= 0 then "+" else "-")
      (Q.to_string (Q.abs t.r))
      (Bigint.to_string t.d)

let of_string s =
  let marker = "*sqrt(" in
  let mlen = String.length marker and len = String.length s in
  let rec find i =
    if i + mlen > len then None
    else if String.equal (String.sub s i mlen) marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> of_q (Q.of_string s)
  | Some i ->
      if len = 0 || not (Char.equal s.[len - 1] ')') then
        invalid_arg "Qx.of_string: missing closing parenthesis";
      let d = Bigint.of_string (String.sub s (i + mlen) (len - 1 - i - mlen)) in
      let prefix = String.sub s 0 i in
      (* split "q±|r|" at the rightmost sign with index >= 1 (q may open
         with '-'; |r| carries no sign). *)
      let rec split j =
        if j < 1 then invalid_arg "Qx.of_string: missing surd sign"
        else
          match prefix.[j] with
          | '+' | '-' -> j
          | _ -> split (j - 1)
      in
      let j = split (String.length prefix - 1) in
      let q = Q.of_string (String.sub prefix 0 j) in
      let r_abs =
        Q.of_string (String.sub prefix (j + 1) (String.length prefix - j - 1))
      in
      let r = if Char.equal prefix.[j] '-' then Q.neg r_abs else r_abs in
      make ~q ~r ~d

let pp fmt t = Format.pp_print_string fmt (to_string t)
