(* Tests for the exact polynomial layer: arithmetic, Sturm root counting
   and the sign decision procedure. *)

module Q = Rational

let q = Q.of_ints
let p cs = Poly.of_coeffs (List.map (fun (a, b) -> q a b) cs)
let check_p = Alcotest.check (Alcotest.testable Poly.pp Poly.equal)

(* (x - 1)(x - 2) = 2 - 3x + x^2 *)
let x2_3x_2 = p [ (2, 1); (-3, 1); (1, 1) ]

let test_construction () =
  Alcotest.(check int) "degree" 2 (Poly.degree x2_3x_2);
  Alcotest.(check int) "zero degree" (-1) (Poly.degree Poly.zero);
  Alcotest.(check bool) "is_zero" true (Poly.is_zero (p [ (0, 1); (0, 1) ]));
  Helpers.check_q "leading" Q.one (Poly.leading x2_3x_2);
  Helpers.check_q "coeff" (q (-3) 1) (Poly.coeff x2_3x_2 1);
  Helpers.check_q "coeff out of range" Q.zero (Poly.coeff x2_3x_2 9);
  Alcotest.check_raises "inf coeff"
    (Invalid_argument "Poly.of_coeffs: infinite coefficient") (fun () ->
      ignore (Poly.of_coeffs [ Q.inf ]))

let test_arithmetic () =
  check_p "x^2 identity" x2_3x_2
    (Poly.mul (Poly.linear (q (-1) 1) Q.one) (Poly.linear (q (-2) 1) Q.one));
  check_p "add/sub" Poly.zero (Poly.sub x2_3x_2 x2_3x_2);
  check_p "scale" (p [ (4, 1); (-6, 1); (2, 1) ]) (Poly.scale Q.two x2_3x_2);
  check_p "pow" (Poly.mul x2_3x_2 x2_3x_2) (Poly.pow x2_3x_2 2);
  check_p "derive" (p [ (-3, 1); (2, 1) ]) (Poly.derive x2_3x_2);
  Helpers.check_q "eval at 3" (q 2 1) (Poly.eval x2_3x_2 (q 3 1));
  Helpers.check_q "eval at root" Q.zero (Poly.eval x2_3x_2 Q.one)

let test_divmod () =
  let quo, rem = Poly.divmod x2_3x_2 (Poly.linear (q (-1) 1) Q.one) in
  check_p "quotient" (Poly.linear (q (-2) 1) Q.one) quo;
  check_p "remainder" Poly.zero rem;
  let quo, rem = Poly.divmod x2_3x_2 (Poly.linear Q.one Q.one) in
  (* x^2 - 3x + 2 = (x + 1)(x - 4) + 6 *)
  check_p "quotient 2" (Poly.linear (q (-4) 1) Q.one) quo;
  check_p "remainder 2" (Poly.constant (q 6 1)) rem;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Poly.divmod x2_3x_2 Poly.zero))

let test_count_roots () =
  Alcotest.(check int) "two roots in (0,3]" 2
    (Poly.count_roots x2_3x_2 ~lo:Q.zero ~hi:(q 3 1));
  Alcotest.(check int) "one root in (0,3/2]" 1
    (Poly.count_roots x2_3x_2 ~lo:Q.zero ~hi:(q 3 2));
  Alcotest.(check int) "none in (3,5]" 0
    (Poly.count_roots x2_3x_2 ~lo:(q 3 1) ~hi:(q 5 1));
  (* repeated root counted once: (x-1)^2 *)
  let sq = Poly.pow (Poly.linear (q (-1) 1) Q.one) 2 in
  Alcotest.(check int) "double root once" 1
    (Poly.count_roots sq ~lo:Q.zero ~hi:(q 3 1));
  (* endpoint exactly on a root *)
  Alcotest.(check int) "root at hi included" 1
    (Poly.count_roots x2_3x_2 ~lo:(q 3 2) ~hi:(q 2 1));
  Alcotest.(check int) "root at lo excluded" 1
    (Poly.count_roots x2_3x_2 ~lo:Q.one ~hi:(q 3 1))

let test_isolate_roots () =
  let brackets = Poly.isolate_roots x2_3x_2 ~lo:Q.zero ~hi:(q 3 1) in
  Alcotest.(check int) "two brackets" 2 (List.length brackets);
  List.iteri
    (fun i (l, h) ->
      let target = q (i + 1) 1 in
      Alcotest.(check bool) "root inside" true
        (Q.compare l target < 0 && Q.compare target h <= 0))
    brackets

let test_non_negative () =
  let check name expected poly lo hi =
    Alcotest.(check bool) name expected
      (Sign_oracle.non_negative_on poly ~lo:(q lo 1) ~hi:(q hi 1))
  in
  check "dips negative" false x2_3x_2 0 3;
  check "nonneg right of roots" true x2_3x_2 2 5;
  check "nonneg left of roots" true x2_3x_2 (-3) 1;
  (* touching zero from above: (x-1)^2 *)
  let sq = Poly.pow (Poly.linear (q (-1) 1) Q.one) 2 in
  check "square touch" true sq 0 3;
  check "negated square" false (Poly.neg sq) 0 3;
  (* adjacent double dip: (x-1)^2 (x-2)^2 - tiny *)
  let quartic =
    Poly.sub (Poly.mul sq (Poly.pow (Poly.linear (q (-2) 1) Q.one) 2))
      (Poly.constant (q 1 1000))
  in
  check "quartic dips" false quartic 0 3;
  (* constant cases *)
  check "positive constant" true (Poly.constant Q.one) 0 1;
  check "negative constant" false (Poly.constant (q (-1) 1)) 0 1;
  check "zero poly" true Poly.zero 0 1;
  (* interval endpoints on roots: p >= 0 on [1,2]? between the roots the
     parabola is negative *)
  check "between roots, root endpoints" false x2_3x_2 1 2

(* Property: divmod identity and evaluation homomorphisms. *)
let poly_gen =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (map2 (fun n d -> Q.of_ints n (1 + abs d)) (int_range (-20) 20)
         (int_range 0 6))
    >|= Poly.of_coeffs)

let props =
  [
    Helpers.qtest ~count:200 "divmod identity"
      QCheck2.Gen.(pair poly_gen poly_gen)
      (fun (a, b) ->
        Poly.is_zero b
        ||
        let quo, rem = Poly.divmod a b in
        Poly.equal a (Poly.add (Poly.mul quo b) rem)
        && (Poly.is_zero rem || Poly.degree rem < Poly.degree b));
    Helpers.qtest ~count:200 "eval is a ring hom"
      QCheck2.Gen.(triple poly_gen poly_gen Helpers.rational_gen)
      (fun (a, b, v) ->
        Q.equal (Poly.eval (Poly.add a b) v) (Q.add (Poly.eval a v) (Poly.eval b v))
        && Q.equal (Poly.eval (Poly.mul a b) v)
             (Q.mul (Poly.eval a v) (Poly.eval b v)));
    Helpers.qtest ~count:100 "root count matches factored form"
      QCheck2.Gen.(list_size (int_range 1 4) (int_range (-8) 8))
      (fun roots ->
        (* p = prod (x - r) with integer roots; count distinct in (-10, 10] *)
        let poly =
          List.fold_left
            (fun acc r -> Poly.mul acc (Poly.linear (Q.of_int (-r)) Q.one))
            Poly.one roots
        in
        let distinct = List.sort_uniq compare roots in
        Poly.count_roots poly ~lo:(Q.of_int (-10)) ~hi:(Q.of_int 10)
        = List.length distinct);
    Helpers.qtest ~count:100 "non_negative_on agrees with dense sampling"
      QCheck2.Gen.(pair poly_gen (int_range 0 100))
      (fun (poly, off) ->
        let lo = Q.of_ints (off - 50) 10 and hi = Q.of_ints (off - 30) 10 in
        let claimed = Sign_oracle.non_negative_on poly ~lo ~hi in
        (* dense rational sampling can only refute, not confirm *)
        let refuted = ref false in
        for k = 0 to 64 do
          let t = Q.add lo (Q.mul_int (Q.div_int (Q.sub hi lo) 64) k) in
          if Q.sign (Poly.eval poly t) < 0 then refuted := true
        done;
        (not !refuted) || not claimed);
  ]

let () =
  Alcotest.run "poly"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "count_roots" `Quick test_count_roots;
          Alcotest.test_case "isolate_roots" `Quick test_isolate_roots;
          Alcotest.test_case "non_negative_on" `Quick test_non_negative;
        ] );
      ("properties", props);
    ]
