(* Unit and property tests for exact rationals with the +infinity point. *)

module Q = Rational
module B = Bigint

let q = Q.of_ints
let check_q = Helpers.check_q

let test_normalisation () =
  check_q "6/4 = 3/2" (q 3 2) (q 6 4);
  check_q "-6/4 = -3/2" (q (-3) 2) (q (-6) 4);
  check_q "sign in num" (q (-1) 2) (Q.make (B.of_int 1) (B.of_int (-2)));
  check_q "0/7 = 0" Q.zero (q 0 7);
  Alcotest.(check string) "num" "3" (B.to_string (Q.num (q 6 4)));
  Alcotest.(check string) "den" "2" (B.to_string (Q.den (q 6 4)))

let test_infinity () =
  Alcotest.(check bool) "is_inf" true (Q.is_inf Q.inf);
  Alcotest.(check bool) "1/0 = inf" true (Q.is_inf (Q.make B.one B.zero));
  Alcotest.(check int) "inf sign" 1 (Q.sign Q.inf);
  Alcotest.(check bool) "inf > x" true (Q.compare Q.inf (q 1000000 1) > 0);
  Alcotest.(check bool) "inf = inf" true (Q.equal Q.inf Q.inf);
  check_q "inf + x" Q.inf (Q.add Q.inf (q 3 2));
  check_q "inf * 2" Q.inf (Q.mul Q.inf Q.two);
  check_q "x / inf" Q.zero (Q.div Q.one Q.inf);
  check_q "inv inf" Q.zero (Q.inv Q.inf);
  check_q "inv 0" Q.inf (Q.inv Q.zero);
  Alcotest.check_raises "inf - inf" Division_by_zero (fun () ->
      ignore (Q.sub Q.inf Q.inf));
  Alcotest.check_raises "0 * inf" Division_by_zero (fun () ->
      ignore (Q.mul Q.zero Q.inf));
  Alcotest.check_raises "inf/inf" Division_by_zero (fun () ->
      ignore (Q.div Q.inf Q.inf));
  Alcotest.check_raises "neg inf" Division_by_zero (fun () ->
      ignore (Q.neg Q.inf));
  Alcotest.check_raises "-1/0" Division_by_zero (fun () ->
      ignore (Q.make (B.of_int (-1)) B.zero));
  Alcotest.check_raises "0/0" Division_by_zero (fun () ->
      ignore (Q.make B.zero B.zero))

let test_arith () =
  check_q "1/2 + 1/3" (q 5 6) (Q.add Q.half (q 1 3));
  check_q "1/2 - 1/3" (q 1 6) (Q.sub Q.half (q 1 3));
  check_q "2/3 * 3/4" Q.half (Q.mul (q 2 3) (q 3 4));
  check_q "(1/2) / (1/4)" Q.two (Q.div Q.half (q 1 4));
  check_q "neg" (q (-1) 2) (Q.neg Q.half);
  check_q "abs" Q.half (Q.abs (q (-1) 2));
  check_q "mul_int" (q 3 2) (Q.mul_int Q.half 3);
  check_q "div_int" (q 1 6) (Q.div_int Q.half 3);
  Alcotest.check_raises "x/0" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_ordering () =
  Alcotest.(check bool) "1/2 < 2/3" true (Q.compare Q.half (q 2 3) < 0);
  Alcotest.(check bool) "-1 < 0" true (Q.compare (q (-1) 1) Q.zero < 0);
  check_q "min" Q.half (Q.min Q.half (q 2 3));
  check_q "max" (q 2 3) (Q.max Q.half (q 2 3))

let test_strings () =
  Alcotest.(check string) "int form" "5" (Q.to_string (q 5 1));
  Alcotest.(check string) "frac form" "5/3" (Q.to_string (q 5 3));
  Alcotest.(check string) "inf" "inf" (Q.to_string Q.inf);
  check_q "parse frac" (q 7 3) (Q.of_string "7/3");
  check_q "parse int" (q (-4) 1) (Q.of_string "-4");
  check_q "parse inf" Q.inf (Q.of_string "inf")

let test_of_string_pins () =
  (* of_string feeds every checkpoint resume and instance file; pin its
     behaviour on non-normalised, negative and infinite inputs. *)
  check_q "2/4 normalises" Q.half (Q.of_string "2/4");
  Alcotest.(check string) "2/4 prints 1/2" "1/2"
    (Q.to_string (Q.of_string "2/4"));
  check_q "-6/4" (q (-3) 2) (Q.of_string "-6/4");
  Alcotest.(check string) "-6/4 prints -3/2" "-3/2"
    (Q.to_string (Q.of_string "-6/4"));
  check_q "sign in denominator" (q (-3) 2) (Q.of_string "6/-4");
  check_q "double negative" (q 3 2) (Q.of_string "-6/-4");
  check_q "0/5 is zero" Q.zero (Q.of_string "0/5");
  Alcotest.(check string) "0/5 prints 0" "0" (Q.to_string (Q.of_string "0/5"));
  check_q "12/4 collapses to integer" (q 3 1) (Q.of_string "12/4");
  Alcotest.(check string) "12/4 prints 3" "3" (Q.to_string (Q.of_string "12/4"));
  (* the infinity point: "1/0" goes through make's infinity rule *)
  check_q "1/0 is inf" Q.inf (Q.of_string "1/0");
  check_q "7/0 is inf" Q.inf (Q.of_string "7/0");
  Alcotest.(check string) "1/0 prints inf" "inf"
    (Q.to_string (Q.of_string "1/0"));
  check_q "inf roundtrip" Q.inf (Q.of_string (Q.to_string Q.inf));
  check_q "padded inf" Q.inf (Q.of_string " inf ");
  Alcotest.check_raises "-1/0 has no value" Division_by_zero (fun () ->
      ignore (Q.of_string "-1/0"));
  Alcotest.check_raises "0/0 has no value" Division_by_zero (fun () ->
      ignore (Q.of_string "0/0"));
  (* to_string output is always re-parseable and fixed-point *)
  List.iter
    (fun s -> Alcotest.(check string) s s (Q.to_string (Q.of_string s)))
    [
      "-7/3"; "5"; "-5"; "1/2"; "inf";
      "123456789123456789123456789/2";
      "-4611686018427387904";
    ]

let test_to_float () =
  Alcotest.(check (float 1e-12)) "1/2" 0.5 (Q.to_float Q.half);
  Alcotest.(check bool) "inf" true (Q.to_float Q.inf = Float.infinity)

(* Qx arithmetic builds its results inside the operands' field without
   re-testing the radicand, so every result must already be in [make]'s
   normal form: rebuilding it through [make] changes no field, no
   printed form, no value and no hash.  The operands mix rationals with
   surds over compatible radicands (2, 8, 18, 50 are all 2·k², and so
   on), which exercises the field promotion. *)
let test_qx_normal_form () =
  let rng = Prng.create 97 in
  let rq () = Q.of_ints (Prng.int rng 41 - 20) (1 + Prng.int rng 9) in
  let fields = [| [| 2; 8; 18; 50 |]; [| 3; 12; 27 |]; [| 5; 20; 45 |] |] in
  let value radicands =
    if Prng.int rng 4 = 0 then Qx.of_q (rq ())
    else
      Qx.make ~q:(rq ()) ~r:(rq ())
        ~d:(Bigint.of_int radicands.(Prng.int rng (Array.length radicands)))
  in
  let normal x =
    let r, d = Qx.surd_part x in
    let y = Qx.make ~q:(Qx.rational_part x) ~r ~d in
    let r', d' = Qx.surd_part y in
    String.equal (Qx.to_string x) (Qx.to_string y)
    && Q.equal r r' && Bigint.equal d d' && Qx.equal x y
    && Int.equal (Qx.hash x) (Qx.hash y)
  in
  for trial = 1 to 600 do
    let x = value fields.(trial mod 3) and y = value fields.(trial mod 3) in
    let results =
      [ ("add", Qx.add x y); ("sub", Qx.sub x y); ("mul", Qx.mul x y) ]
      @ if Qx.sign y = 0 then [] else [ ("div", Qx.div x y) ]
    in
    List.iter
      (fun (op, z) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%s) (%s) = %s is normal" op (Qx.to_string x)
             (Qx.to_string y) (Qx.to_string z))
          true (normal z))
      results
  done;
  let s2 = Qx.sqrt_q Q.two and s8 = Qx.sqrt_q (Q.of_int 8) in
  let check_qx name want got =
    Alcotest.(check string) name want (Qx.to_string got);
    Alcotest.(check bool) (name ^ " normal") true (normal got)
  in
  check_qx "sqrt 2 + sqrt 8" "0+3*sqrt(2)" (Qx.add s2 s8);
  check_qx "sqrt 8 - sqrt 2" "0+1/2*sqrt(8)" (Qx.sub s8 s2);
  check_qx "sqrt 2 * sqrt 8" "4" (Qx.mul s2 s8);
  check_qx "sqrt 8 / sqrt 2" "2" (Qx.div s8 s2);
  check_qx "(1 + sqrt 2) - sqrt 8 / 2" "1" (Qx.sub (Qx.add_q s2 Q.one) (Qx.div_q s8 Q.two))

(* [Qx.isqrt] as it was before it ran on native ints: Newton from
   10^ceil(digits/2), sized through the decimal string.  The reference
   the current one must agree with. *)
let isqrt_decimal n =
  if B.is_zero n then B.zero
  else
    let digits = String.length (B.to_string n) in
    let rec go x =
      let x' = B.div (B.add x (B.div n x)) B.two in
      if B.compare x' x >= 0 then x else go x'
    in
    go (B.pow (B.of_int 10) ((digits + 1) / 2))

(* isqrt n is the floor of the square root: s² ≤ n < (s + 1)².  Covered:
   perfect squares and their neighbours, native and multi-limb; the
   native-int edge around 2^62 and max_int; powers of 2 and 10 up to
   ~200 bits; and a seeded sample of 1..40-digit radicands checked
   against the decimal-start Newton. *)
let test_qx_isqrt () =
  let check n =
    let s = Qx.isqrt n in
    let s1 = B.succ s in
    Alcotest.(check bool)
      (Printf.sprintf "isqrt %s = %s" (B.to_string n) (B.to_string s))
      true
      (B.sign s >= 0 && B.compare (B.mul s s) n <= 0 && B.compare n (B.mul s1 s1) < 0)
  in
  let around n =
    List.iter
      (fun d ->
        let m = B.add_int n d in
        if B.sign m >= 0 then check m)
      [ -1; 0; 1 ]
  in
  List.iter
    (fun r -> around (B.mul r r))
    (List.map B.of_int
       [ 1; 2; 3; 7; 1000; 46_340; 1 lsl 31; 3_037_000_499; 3_037_000_500 ]
    @ [ B.pow B.two 40; B.pow (B.of_int 10) 20;
        B.of_string "123456789012345678901234567890" ]);
  List.iter around
    [ B.of_int max_int; B.of_int (max_int - 1); B.pow B.two 62; B.pow B.two 61;
      B.add (B.of_int max_int) (B.of_int max_int) ];
  for k = 0 to 200 do
    around (B.pow B.two k);
    if k <= 60 then around (B.pow (B.of_int 10) k)
  done;
  Alcotest.(check string) "isqrt 0" "0" (B.to_string (Qx.isqrt B.zero));
  Alcotest.check_raises "isqrt -1" (Invalid_argument "Qx.isqrt: negative input")
    (fun () -> ignore (Qx.isqrt B.minus_one));
  let rng = Prng.create 41 in
  for _ = 1 to 2000 do
    let digits = 1 + Prng.int rng 40 in
    let n =
      B.of_string (String.init digits (fun _ -> Char.chr (48 + Prng.int rng 10)))
    in
    check n;
    Alcotest.(check string)
      ("decimal-start Newton agrees on " ^ B.to_string n)
      (B.to_string (isqrt_decimal n))
      (B.to_string (Qx.isqrt n))
  done

(* Finite-only generator pairs. *)
let gen2 = QCheck2.Gen.pair Helpers.rational_gen Helpers.rational_gen
let gen3 =
  QCheck2.Gen.triple Helpers.rational_gen Helpers.rational_gen
    Helpers.rational_gen

let props =
  [
    Helpers.qtest "add commutative" gen2 (fun (x, y) -> let open Q.Infix in x + y = y + x);
    Helpers.qtest "mul commutative" gen2 (fun (x, y) -> let open Q.Infix in x * y = y * x);
    Helpers.qtest "add associative" gen3 (fun (x, y, z) ->
        let open Q.Infix in
        x + y + z = x + (y + z));
    Helpers.qtest "mul associative" gen3 (fun (x, y, z) ->
        let open Q.Infix in
        x * y * z = x * (y * z));
    Helpers.qtest "distributive" gen3 (fun (x, y, z) ->
        let open Q.Infix in
        x * (y + z) = (x * y) + (x * z));
    Helpers.qtest "sub inverse" gen2 (fun (x, y) -> let open Q.Infix in x - y + y = x);
    Helpers.qtest "div inverse" gen2 (fun (x, y) ->
        let open Q.Infix in
        Q.is_zero y || x / y * y = x);
    Helpers.qtest "normalised gcd" Helpers.rational_gen (fun x ->
        Q.is_inf x
        || Bigint.equal (Bigint.gcd (Q.num x) (Q.den x)) Bigint.one
           && Bigint.sign (Q.den x) = 1);
    Helpers.qtest "compare total order" gen3 (fun (x, y, z) ->
        (* transitivity on a sorted triple *)
        let open Q.Infix in
        let l = List.sort Q.compare [ x; y; z ] in
        match l with
        | [ a; b; c ] -> a <= b && b <= c && a <= c
        | _ -> false);
    Helpers.qtest "inv involution" Helpers.rational_gen (fun x ->
        Q.is_zero x || Q.equal (Q.inv (Q.inv x)) x);
    Helpers.qtest "float consistent order" gen2 (fun (x, y) ->
        (* floats can collapse close values but must not invert strictly
           separated ones by much *)
        Q.compare x y <> 1 || Q.to_float x >= Q.to_float y -. 1e-6);
  ]

let () =
  Alcotest.run "rational"
    [
      ( "unit",
        [
          Alcotest.test_case "normalisation" `Quick test_normalisation;
          Alcotest.test_case "infinity" `Quick test_infinity;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "of_string pins" `Quick test_of_string_pins;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "Qx arithmetic keeps make's normal form" `Quick
            test_qx_normal_form;
          Alcotest.test_case "Qx.isqrt is the floor square root" `Quick
            test_qx_isqrt;
        ] );
      ("properties", props);
    ]
