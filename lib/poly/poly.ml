module Q = Rational

(* Dense representation, constant term first, no trailing zeros; the zero
   polynomial is the empty array. *)
type t = Q.t array

(* Race-lint audit: the array type makes this cell nominally mutable,
   but the zero polynomial is the empty array — there is no element to
   write, and no code path mutates a [t] after [normalize] returns it.
   Worker domains reaching it through the exact sweep only read. *)
let[@lint.allow "race"] zero : t = [||]
let is_zero p = Array.length p = 0
let degree p = Array.length p - 1

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && Q.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_coeffs cs =
  List.iter
    (fun c ->
      if Q.is_inf c then invalid_arg "Poly.of_coeffs: infinite coefficient")
    cs;
  normalize (Array.of_list cs)

let constant c = of_coeffs [ c ]
let one = constant Q.one
let x = of_coeffs [ Q.zero; Q.one ]
let linear a b = of_coeffs [ a; b ]
let coeff p i = if i >= 0 && i < Array.length p then p.(i) else Q.zero
let coeffs p = Array.to_list p

let leading p =
  if is_zero p then invalid_arg "Poly.leading: zero polynomial"
  else p.(Array.length p - 1)

let equal p q =
  Array.length p = Array.length q && Array.for_all2 Q.equal p q

let neg p = Array.map Q.neg p

let add p q =
  let n = Stdlib.max (Array.length p) (Array.length q) in
  normalize (Array.init n (fun i -> Q.add (coeff p i) (coeff q i)))

let sub p q = add p (neg q)

let mul p q =
  if is_zero p || is_zero q then zero
  else begin
    let r = Array.make (Array.length p + Array.length q - 1) Q.zero in
    Array.iteri
      (fun i pi ->
        if not (Q.is_zero pi) then
          Array.iteri
            (fun j qj -> r.(i + j) <- Q.add r.(i + j) (Q.mul pi qj))
            q)
      p;
    normalize r
  end

let scale c p = normalize (Array.map (Q.mul c) p)

let pow p n =
  if n < 0 then invalid_arg "Poly.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one p n

let divmod p d =
  if is_zero d then raise Division_by_zero;
  let dd = degree d and lead = leading d in
  let dp = degree p in
  if dp < dd then (zero, normalize (Array.copy p))
  else begin
    let rem = Array.copy p in
    let q = Array.make (dp - dd + 1) Q.zero in
    for i = dp - dd downto 0 do
      let c = Q.div rem.(i + dd) lead in
      q.(i) <- c;
      if not (Q.is_zero c) then
        for j = 0 to dd do
          rem.(i + j) <- Q.sub rem.(i + j) (Q.mul c (coeff d j))
        done
    done;
    (normalize q, normalize rem)
  end

let derive p =
  if degree p <= 0 then zero
  else
    normalize
      (Array.init (Array.length p - 1) (fun i ->
           Q.mul_int p.(i + 1) (i + 1)))

let eval p v =
  let acc = ref Q.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Q.add (Q.mul !acc v) p.(i)
  done;
  !acc

(* gcd of polynomials (monic), for the square-free part. *)
let rec poly_gcd p q =
  if is_zero q then
    if is_zero p then zero else scale (Q.inv (leading p)) p
  else poly_gcd q (snd (divmod p q))

let square_free p =
  let d = derive p in
  if is_zero d then p
  else
    let g = poly_gcd p d in
    if degree g <= 0 then p else fst (divmod p g)

let sturm_sequence p =
  if is_zero p then invalid_arg "Poly.sturm_sequence: zero polynomial";
  let p = square_free p in
  let rec chain a b acc =
    if is_zero b then List.rev acc
    else
      let r = neg (snd (divmod a b)) in
      chain b r (b :: acc)
  in
  chain p (derive p) [ p ]

let sign_changes signs =
  let filtered = List.filter (fun s -> s <> 0) signs in
  let rec count = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + count rest
    | _ -> 0
  in
  count filtered

let sturm_at chain v = sign_changes (List.map (fun p -> Q.sign (eval p v)) chain)

(* Remove the factor (x - pt)^m from q, so Sturm evaluation points are
   never roots (the theorem's precondition). *)
let deflate_at q pt =
  let lin = linear (Q.neg pt) Q.one in
  let rec go q =
    if degree q > 0 && Q.is_zero (eval q pt) then go (fst (divmod q lin))
    else q
  in
  go q

(* Distinct roots of p strictly inside (lo, hi): square-free part with
   both endpoints deflated away, then a clean Sturm count. *)
let interior_roots p ~lo ~hi =
  let q = deflate_at (deflate_at (square_free p) lo) hi in
  if degree q <= 0 then 0
  else
    let chain = sturm_sequence q in
    sturm_at chain lo - sturm_at chain hi

let count_roots p ~lo ~hi =
  if Q.compare lo hi > 0 then invalid_arg "Poly.count_roots: empty interval";
  if is_zero p then invalid_arg "Poly.count_roots: zero polynomial";
  if degree p = 0 then 0
  else
    (* (lo, hi] = interior plus a possible root at hi *)
    interior_roots p ~lo ~hi
    + (if Q.is_zero (eval p hi) && Q.compare lo hi < 0 then 1 else 0)

let isolate_roots p ~lo ~hi =
  if is_zero p then invalid_arg "Poly.isolate_roots: zero polynomial";
  if degree p = 0 then []
  else begin
    let tolerance = Q.div_int (Q.sub hi lo) 4096 in
    let roots_in l h = count_roots p ~lo:l ~hi:h in
    (* recursively split until each bracket holds one root and is narrow *)
    let rec go l h acc =
      let k = roots_in l h in
      if k = 0 then acc
      else if k = 1 && Q.compare (Q.sub h l) tolerance <= 0 then
        (l, h) :: acc
      else
        let mid = Q.div_int (Q.add l h) 2 in
        if Q.equal mid l || Q.equal mid h then (l, h) :: acc
        else go mid h (go l mid acc)
    in
    List.rev (go lo hi [])
  end

let pp fmt p =
  if is_zero p then Format.pp_print_string fmt "0"
  else begin
    let first = ref true in
    Array.iteri
      (fun i c ->
        if not (Q.is_zero c) then begin
          if not !first then Format.pp_print_string fmt " + ";
          first := false;
          if i = 0 then Q.pp fmt c
          else if i = 1 then Format.fprintf fmt "%a*x" Q.pp c
          else Format.fprintf fmt "%a*x^%d" Q.pp c i
        end)
      p
  end
