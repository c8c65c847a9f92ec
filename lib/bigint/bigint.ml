(* Arbitrary-precision signed integers with a Zarith-style fixnum fast
   path.

   Representation:
   - [Small n] holds every value representable in a native [int];
   - [Big { sign; mag }] holds everything else, as a sign and a
     little-endian magnitude in base 10^9 limbs.

   Invariants (the canonical-form contract):
   - a value fits the native [int] range iff it is [Small] — [Big] is
     reserved for out-of-range values, so equal values always have
     identical representations (structural [equal]/[hash] stay valid);
   - in [Big], [mag] has a non-zero most-significant limb, at least one
     limb, and [sign] is [-1] or [1];
   - every limb lies in [0, base).

   Fast-path contract: the [Small]/[Small] cases of [add], [sub],
   [mul], [divmod], [gcd] and [compare] run entirely on native ints
   with explicit overflow checks, and fall back to the limb algorithms
   (via [parts]) exactly when the native computation would overflow.
   All limb-level arithmetic stays within the native 63-bit [int]:
   products of two limbs are below 10^18 and every intermediate sum
   computes with headroom of ~4.6*10^18. *)

let base = 1_000_000_000
let base_digits = 9

type t = Small of int | Big of { sign : int; mag : int array }

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned) helpers                                        *)
(* ------------------------------------------------------------------ *)

(* Number of significant limbs in [a] considering only the first [len]. *)
let significant a len =
  let i = ref len in
  while !i > 0 && a.(!i - 1) = 0 do
    decr i
  done;
  !i

let normalize_mag a =
  let n = significant a (Array.length a) in
  if n = Array.length a then a else Array.sub a 0 n

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then (Stdlib.compare la lb [@lint.allow "polycompare"])
  else
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then
        (Stdlib.compare a.(i) b.(i) [@lint.allow "polycompare"])
      else loop (i - 1)
    in
    loop (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry + (if i < la then a.(i) else 0) + if i < lb then b.(i) else 0
    in
    if s >= base then (
      r.(i) <- s - base;
      carry := 1)
    else (
      r.(i) <- s;
      carry := 0)
  done;
  normalize_mag r

(* Requires [a >= b] as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - !borrow - if i < lb then b.(i) else 0 in
    if d < 0 then (
      r.(i) <- d + base;
      borrow := 1)
    else (
      r.(i) <- d;
      borrow := 0)
  done;
  assert (!borrow = 0);
  normalize_mag r

let mul_mag_int a m =
  (* [0 <= m < base] *)
  if m = 0 then [||]
  else
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p mod base;
      carry := p / base
    done;
    r.(la) <- !carry;
    normalize_mag r

let schoolbook_threshold = 32

let mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let p = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- p mod base;
        carry := p / base
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let p = r.(!k) + !carry in
        r.(!k) <- p mod base;
        carry := p / base;
        incr k
      done
    end
  done;
  normalize_mag r

(* Karatsuba on magnitudes.  Splitting at [m] limbs:
   a = a0 + a1*B^m, b = b0 + b1*B^m,
   a*b = z0 + (z1 - z0 - z2)*B^m + z2*B^2m
   with z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)*(b0+b1). *)
let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la <= schoolbook_threshold || lb <= schoolbook_threshold then
    mul_schoolbook a b
  else begin
    let m = (Stdlib.max la lb + 1) / 2 in
    let lo x =
      normalize_mag (Array.sub x 0 (Stdlib.min m (Array.length x)))
    in
    let hi x =
      if Array.length x <= m then [||]
      else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let z1 = mul_mag (add_mag a0 a1) (add_mag b0 b1) in
    let mid = sub_mag (sub_mag z1 z0) z2 in
    let r = Array.make (la + lb + 1) 0 in
    let add_at ofs x =
      let carry = ref 0 in
      let lx = Array.length x in
      for i = 0 to lx - 1 do
        let s = r.(ofs + i) + x.(i) + !carry in
        if s >= base then (
          r.(ofs + i) <- s - base;
          carry := 1)
        else (
          r.(ofs + i) <- s;
          carry := 0)
      done;
      let k = ref (ofs + lx) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        if s >= base then (
          r.(!k) <- s - base;
          carry := 1)
        else (
          r.(!k) <- s;
          carry := 0);
        incr k
      done
    in
    add_at 0 z0;
    add_at m mid;
    add_at (2 * m) z2;
    normalize_mag r
  end

(* Short division of a magnitude by [0 < d < base]: quotient and int rest. *)
let divmod_mag_int a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r * base) + a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize_mag q, !r)

(* Knuth algorithm D on magnitudes; requires [Array.length v >= 2] and
   [u >= v].  Returns (quotient, remainder). *)
let divmod_mag_long u v =
  (* Normalise so that the top limb of the divisor is at least base/2, by
     doubling both operands.  Doubling may grow the divisor by a limb (the
     new top limb is then 1), in which case further doublings raise it back
     above base/2; at most ~60 doublings in total.  The quotient is invariant
     under common scaling and the remainder is unscaled exactly. *)
  let shift = ref 0 in
  let vn = ref v in
  while !vn.(Array.length !vn - 1) < base / 2 do
    vn := mul_mag_int !vn 2;
    incr shift
  done;
  let un0 = ref u in
  for _ = 1 to !shift do
    un0 := mul_mag_int !un0 2
  done;
  let vn = !vn and un0 = !un0 in
  let n = Array.length vn in
  let m = Array.length un0 - n in
  (* Working dividend with an explicit extra top limb. *)
  let w = Array.make (Array.length un0 + 1) 0 in
  Array.blit un0 0 w 0 (Array.length un0);
  let q = Array.make (m + 1) 0 in
  let vn1 = vn.(n - 1) and vn2 = vn.(n - 2) in
  for j = m downto 0 do
    let num = (w.(j + n) * base) + w.(j + n - 1) in
    let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
    let again = ref true in
    while !again do
      if !qhat >= base || !qhat * vn2 > (!rhat * base) + w.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then again := false
      end
      else again := false
    done;
    (* Multiply and subtract: w[j .. j+n] -= qhat * vn. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !borrow in
      let t = w.(i + j) - (p mod base) in
      if t < 0 then (
        w.(i + j) <- t + base;
        borrow := (p / base) + 1)
      else (
        w.(i + j) <- t;
        borrow := p / base)
    done;
    let t = w.(j + n) - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = w.(i + j) + vn.(i) + !carry in
        if s >= base then (
          w.(i + j) <- s - base;
          carry := 1)
        else (
          w.(i + j) <- s;
          carry := 0)
      done;
      w.(j + n) <- t + !carry
    end
    else w.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let rem = ref (normalize_mag (Array.sub w 0 n)) in
  for _ = 1 to !shift do
    let r, leftover = divmod_mag_int !rem 2 in
    assert (leftover = 0);
    rem := r
  done;
  (normalize_mag q, !rem)

let divmod_mag u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | _ when compare_mag u v < 0 -> ([||], u)
  | 1 ->
      let q, r = divmod_mag_int u v.(0) in
      (q, if r = 0 then [||] else [| r |])
  | _ -> divmod_mag_long u v

(* Binary (Stein) gcd on magnitudes.  The base is even, so the parity of
   a magnitude is the parity of its lowest limb, and halving is a single
   linear [divmod_mag_int] pass — each step is O(limbs) instead of the
   full Knuth-D divmod the Euclid loop paid per iteration. *)

let mag_is_even m = m.(0) land 1 = 0
let mag_half m = fst (divmod_mag_int m 2)

let gcd_mag_stein a0 b0 =
  if Array.length a0 = 0 then b0
  else if Array.length b0 = 0 then a0
  else begin
    let a = ref a0 and b = ref b0 and shift = ref 0 in
    while mag_is_even !a && mag_is_even !b do
      a := mag_half !a;
      b := mag_half !b;
      incr shift
    done;
    while mag_is_even !a do
      a := mag_half !a
    done;
    (* invariant: [a] is odd from here on *)
    let continue_ = ref true in
    while !continue_ do
      while Array.length !b > 0 && mag_is_even !b do
        b := mag_half !b
      done;
      if Array.length !b = 0 then continue_ := false
      else begin
        (* both odd: keep the smaller in [a], subtract (difference is
           even, so the next round halves it) *)
        if compare_mag !a !b > 0 then begin
          let t = !a in
          a := !b;
          b := t
        end;
        b := sub_mag !b !a
      end
    done;
    let g = ref !a in
    for _ = 1 to !shift do
      g := mul_mag_int !g 2
    done;
    !g
  end

(* ------------------------------------------------------------------ *)
(* Representation change: canonical constructors                       *)
(* ------------------------------------------------------------------ *)

(* Magnitude limbs of [|n|]; [n] may be [min_int]. *)
let mag_of_abs_int n =
  if n = 0 then [||]
  else begin
    let rec limbs n acc =
      if n = 0 then List.rev acc
      else limbs (n / base) ((n mod base) :: acc)
    in
    let l =
      if n <> Stdlib.min_int then limbs (Stdlib.abs n) []
      else
        (* min_int has no positive counterpart; peel one limb first. *)
        let q = -(n / base) and r = -(n mod base) in
        r :: limbs q []
    in
    Array.of_list l
  end

let min_int_mag = mag_of_abs_int Stdlib.min_int

(* Value of a magnitude when it fits [0, max_int]. *)
let mag_value_opt mag =
  let l = Array.length mag in
  if l = 0 then Some 0
  else if l > 3 then None
  else
    let rec value i acc =
      if i < 0 then Some acc
      else
        let limb = mag.(i) in
        if acc > (max_int - limb) / base then None
        else value (i - 1) ((acc * base) + limb)
    in
    value (l - 1) 0

(* The canonical constructor: demotes any in-int-range magnitude to
   [Small], so equal values always share a representation. *)
let make sign mag =
  if Array.length mag = 0 then Small 0
  else
    match mag_value_opt mag with
    | Some v -> Small (if sign < 0 then -v else v)
    | None ->
        if sign < 0 && compare_mag mag min_int_mag = 0 then
          Small Stdlib.min_int
        else Big { sign; mag }

(* Limb-path view of any value. *)
let parts = function
  | Small 0 -> (0, [||])
  | Small n -> ((if n < 0 then -1 else 1), mag_of_abs_int n)
  | Big { sign; mag } -> (sign, mag)

(* ------------------------------------------------------------------ *)
(* Signed limb-path layer (the overflow fallbacks)                     *)
(* ------------------------------------------------------------------ *)

let add_parts (sa, ma) (sb, mb) =
  if sa = 0 then make sb mb
  else if sb = 0 then make sa ma
  else if sa = sb then make sa (add_mag ma mb)
  else
    let c = compare_mag ma mb in
    if c = 0 then Small 0
    else if c > 0 then make sa (sub_mag ma mb)
    else make sb (sub_mag mb ma)

let mul_parts (sa, ma) (sb, mb) =
  if sa = 0 || sb = 0 then Small 0 else make (sa * sb) (mul_mag ma mb)

let divmod_parts (sa, ma) (sb, mb) =
  if sb = 0 then raise Division_by_zero
  else if sa = 0 then (Small 0, Small 0)
  else
    let qm, rm = divmod_mag ma mb in
    (make (sa * sb) qm, make sa rm)

let compare_parts (sa, ma) (sb, mb) =
  if sa <> sb then (Stdlib.compare sa sb [@lint.allow "polycompare"])
  else if sa >= 0 then compare_mag ma mb
  else compare_mag mb ma

(* ------------------------------------------------------------------ *)
(* Public signed layer with fixnum fast paths                          *)
(* ------------------------------------------------------------------ *)

let zero = Small 0
let one = Small 1
let two = Small 2
let minus_one = Small (-1)
let of_int n = Small n
let sign = function
  | Small n -> (Stdlib.compare n 0 [@lint.allow "polycompare"])
  | Big b -> b.sign
let is_zero = function Small 0 -> true | _ -> false

let neg = function
  | Small n when n <> Stdlib.min_int -> Small (-n)
  | Small _ -> Big { sign = 1; mag = min_int_mag }
  (* make, not a raw record: negating Big{1; 2^62} must demote to
     Small min_int to preserve canonical form. *)
  | Big b -> make (-b.sign) b.mag

let abs x =
  match x with
  | Small n when n >= 0 -> x
  | Big { sign = 1; _ } -> x
  | _ -> neg x

let compare a b =
  match (a, b) with
  | Small x, Small y -> (Stdlib.compare x y [@lint.allow "polycompare"])
  | Small _, Big bb -> if bb.sign > 0 then -1 else 1
  | Big ba, Small _ -> if ba.sign > 0 then 1 else -1
  | Big ba, Big bb ->
      if not (Int.equal ba.sign bb.sign) then
        (Stdlib.compare ba.sign bb.sign [@lint.allow "polycompare"])
      else if ba.sign >= 0 then compare_mag ba.mag bb.mag
      else compare_mag bb.mag ba.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big ba, Big bb ->
      Int.equal ba.sign bb.sign && compare_mag ba.mag bb.mag = 0
  | _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash x =
  (* Canonical form makes any representation-level hash value-level. *)
  match x with
  | Small n -> n land max_int
  | Big { sign; mag } ->
      Array.fold_left (fun acc limb -> (acc * 1_000_003) + limb) sign mag
      land max_int

let add a b =
  match (a, b) with
  | Small x, Small y ->
      let s = x + y in
      (* overflow iff the operands share a sign the sum lost *)
      if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then
        add_parts (parts a) (parts b)
      else Small s
  | _ -> add_parts (parts a) (parts b)

let sub a b =
  match (a, b) with
  | Small x, Small y ->
      let d = x - y in
      (* overflow iff the operands' signs differ and the result lost x's *)
      if (x >= 0) <> (y >= 0) && (d >= 0) <> (x >= 0) then
        add_parts (parts a) (parts (neg b))
      else Small d
  | _ -> add_parts (parts a) (parts (neg b))

let succ x = add x one
let pred x = sub x one

(* |x|,|y| < 2^31 keeps the product below 2^62 - 1 = max_int. *)
let small_mul_bound = 1 lsl 31

let mul a b =
  match (a, b) with
  | Small x, Small y ->
      if x = 0 || y = 0 then Small 0
      else if
        x < small_mul_bound
        && x > -small_mul_bound
        && y < small_mul_bound
        && y > -small_mul_bound
      then Small (x * y)
      else mul_parts (parts a) (parts b)
  | _ -> mul_parts (parts a) (parts b)

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
      if x = Stdlib.min_int && y = -1 then (neg a, Small 0)
      else (Small (x / y), Small (x mod y))
  | Small x, Big _ when x <> Stdlib.min_int ->
      (* canonical form: any Big magnitude is >= 2^62, so |a| < |b| for
         every Small except min_int (|min_int| = 2^62 can tie |b|). *)
      (Small 0, a)
  | _ -> divmod_parts (parts a) (parts b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let gcd a b =
  match (a, b) with
  | Small x, Small y when x <> Stdlib.min_int && y <> Stdlib.min_int ->
      Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
      let _, ma = parts (abs a) and _, mb = parts (abs b) in
      make 1 (gcd_mag_stein ma mb)

let to_int = function Small n -> Some n | Big _ -> None

let to_int_exn = function
  | Small n -> n
  | Big _ -> failwith "Bigint.to_int_exn: value out of int range"

(* reporting boundary: to_float is the one sanctioned exit from exact
   arithmetic, consumed by trace/bench displays only *)
let[@lint.allow "float"] to_float = function
  | Small n -> float_of_int n
  | Big { sign; mag } ->
      let f = ref 0.0 in
      for i = Array.length mag - 1 downto 0 do
        f := (!f *. float_of_int base) +. float_of_int mag.(i)
      done;
      if sign < 0 then -. !f else !f

(* Bit length of a non-negative native int. *)
let rec int_bits n = if n = 0 then 0 else 1 + int_bits (n lsr 1)

(* A base-10^9 limb is below 2^30, so a magnitude of l limbs whose top
   limb has b bits is below 2^(b + 30(l - 1)). *)
let bits_bound = function
  | Small n -> if n = Stdlib.min_int then 63 else int_bits (Stdlib.abs n)
  | Big { mag; _ } ->
      let l = Array.length mag in
      int_bits mag.(l - 1) + (30 * (l - 1))

let mul_int a n = mul a (Small n)
let add_int a n = add a (Small n)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one x n

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; mag } ->
      let buf = Buffer.create (Array.length mag * base_digits) in
      if sign < 0 then Buffer.add_char buf '-';
      let top = Array.length mag - 1 in
      Buffer.add_string buf (string_of_int mag.(top));
      for i = top - 1 downto 0 do
        Buffer.add_string buf (Printf.sprintf "%09d" mag.(i))
      done;
      Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let digits = Buffer.create n in
  for i = start to n - 1 do
    match s.[i] with
    | '0' .. '9' as c -> Buffer.add_char digits c
    | '_' -> ()
    | _ -> invalid_arg "Bigint.of_string: invalid character"
  done;
  let ds = Buffer.contents digits in
  let nd = String.length ds in
  if nd = 0 then invalid_arg "Bigint.of_string: no digits";
  let nlimbs = (nd + base_digits - 1) / base_digits in
  let mag = Array.make nlimbs 0 in
  for limb = 0 to nlimbs - 1 do
    let stop = nd - (limb * base_digits) in
    let from = Stdlib.max 0 (stop - base_digits) in
    mag.(limb) <- int_of_string (String.sub ds from (stop - from))
  done;
  make sign (normalize_mag mag)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

(* ------------------------------------------------------------------ *)
(* Test-only hooks                                                     *)
(* ------------------------------------------------------------------ *)

module For_testing = struct
  let is_small = function Small _ -> true | Big _ -> false
  let slow_add a b = add_parts (parts a) (parts b)
  let slow_sub a b = add_parts (parts a) (parts (neg b))
  let slow_mul a b = mul_parts (parts a) (parts b)
  let slow_divmod a b = divmod_parts (parts a) (parts b)
  let slow_compare a b = compare_parts (parts a) (parts b)

  let slow_gcd a b =
    (* Euclid with a full limb divmod per step: the pre-fixnum reference
       algorithm the Stein gcd is checked against. *)
    let rec go a b =
      if is_zero b then a else go b (snd (divmod_parts (parts a) (parts b)))
    in
    go (abs a) (abs b)
end
