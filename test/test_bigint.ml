(* Unit and property tests for the arbitrary-precision integer layer. *)

module B = Bigint

let b = B.of_int
let check_b = Alcotest.check (Alcotest.testable B.pp B.equal)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  check_b "zero" B.zero (b 0);
  check_b "one" B.one (b 1);
  check_b "two" B.two (b 2);
  check_b "minus_one" B.minus_one (b (-1));
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "one not zero" false (B.is_zero B.one)

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (string_of_int n) (Some n)
        (B.to_int (b n)))
    [ 0; 1; -1; 42; -42; 999_999_999; 1_000_000_000; max_int; min_int;
      max_int - 1; min_int + 1 ]

let test_to_int_overflow () =
  let big = B.mul (b max_int) (b 10) in
  Alcotest.(check (option int)) "overflow" None (B.to_int big);
  Alcotest.check_raises "to_int_exn" (Failure "Bigint.to_int_exn: value out of int range")
    (fun () -> ignore (B.to_int_exn big))

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [
      "0"; "1"; "-1"; "123456789"; "1000000000"; "-1000000000";
      "999999999999999999999999999999";
      "-123456789012345678901234567890123456789";
    ]

let test_of_string_forms () =
  check_b "plus sign" (b 42) (B.of_string "+42");
  check_b "underscores" (b 1_000_000) (B.of_string "1_000_000");
  check_b "leading zeros" (b 7) (B.of_string "0007");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (B.of_string "12x4"))

let test_arith_small () =
  check_b "add" (b 7) (B.add (b 3) (b 4));
  check_b "sub" (b (-1)) (B.sub (b 3) (b 4));
  check_b "mul" (b 12) (B.mul (b 3) (b 4));
  check_b "mul neg" (b (-12)) (B.mul (b (-3)) (b 4));
  check_b "div" (b 3) (B.div (b 7) (b 2));
  check_b "div trunc neg" (b (-3)) (B.div (b (-7)) (b 2));
  check_b "rem sign" (b (-1)) (B.rem (b (-7)) (b 2));
  check_b "succ" (b 1) (B.succ B.zero);
  check_b "pred" (b (-1)) (B.pred B.zero)

let test_min_int_division () =
  (* min_int is the classic trap for sign-magnitude conversions. *)
  let q, r = B.divmod (b min_int) (b (-1)) in
  check_b "min_int / -1" (B.neg (b min_int)) q;
  check_b "min_int mod -1" B.zero r

let test_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_pow () =
  check_b "2^10" (b 1024) (B.pow (b 2) 10);
  check_b "x^0" B.one (B.pow (b 999) 0);
  check_b "0^5" B.zero (B.pow B.zero 5);
  check_b "10^30"
    (B.of_string "1000000000000000000000000000000")
    (B.pow (b 10) 30);
  Alcotest.check_raises "neg exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow (b 2) (-1)))

let test_gcd () =
  check_b "gcd 12 18" (b 6) (B.gcd (b 12) (b 18));
  check_b "gcd 0 5" (b 5) (B.gcd B.zero (b 5));
  check_b "gcd neg" (b 6) (B.gcd (b (-12)) (b 18));
  check_b "gcd 0 0" B.zero (B.gcd B.zero B.zero)

let test_compare_order () =
  Alcotest.(check bool) "lt" true (B.compare (b 3) (b 4) < 0);
  Alcotest.(check bool) "neg lt pos" true (B.compare (b (-1)) (b 1) < 0);
  Alcotest.(check bool) "mag order neg" true (B.compare (b (-10)) (b (-2)) < 0);
  check_b "min" (b (-3)) (B.min (b 5) (b (-3)));
  check_b "max" (b 5) (B.max (b 5) (b (-3)))

let test_karatsuba_crossover () =
  (* Exercise the Karatsuba path with operands above the threshold and
     check against the identity (10^n - 1)^2 = 10^2n - 2*10^n + 1. *)
  let n = 1500 in
  let x = B.pred (B.pow (b 10) n) in
  let expected =
    B.succ (B.sub (B.pow (b 10) (2 * n)) (B.mul_int (B.pow (b 10) n) 2))
  in
  check_b "(10^1500-1)^2" expected (B.mul x x)

let test_to_float () =
  Alcotest.(check (float 1e-9)) "42." 42.0 (B.to_float (b 42));
  Alcotest.(check (float 1e6)) "1e18" 1e18 (B.to_float (B.pow (b 10) 18));
  Alcotest.(check (float 1e-9)) "-3." (-3.0) (B.to_float (b (-3)))

let test_fixnum_boundaries () =
  (* 2^62 = |min_int| is the first value past the immediate range. *)
  let two62 = B.of_string "4611686018427387904" in
  check_b "max_int + 1" two62 (B.add (b max_int) B.one);
  check_b "min_int - 1" (B.of_string "-4611686018427387905")
    (B.sub (b min_int) B.one);
  check_b "neg min_int" two62 (B.neg (b min_int));
  check_b "2^31 * 2^31" two62 (B.mul (b (1 lsl 31)) (b (1 lsl 31)));
  check_b "(2^31-1)^2 stays immediate"
    (B.of_string "4611686014132420609")
    (B.mul (b ((1 lsl 31) - 1)) (b ((1 lsl 31) - 1)));
  check_b "min_int * -1" two62 (B.mul (b min_int) (b (-1)));
  check_b "gcd min_int min_int" two62 (B.gcd (b min_int) (b min_int));
  check_b "gcd min_int 2" (b 2) (B.gcd (b min_int) (b 2));
  check_b "gcd min_int 0" two62 (B.gcd (b min_int) B.zero);
  (* canonical demotion: limb-path results that fit the native range
     must come back immediate *)
  Alcotest.(check bool) "demote to immediate" true
    (B.For_testing.is_small (B.sub (B.add (b max_int) B.one) B.one));
  Alcotest.(check bool) "2^62 is not immediate" false
    (B.For_testing.is_small two62);
  Alcotest.(check bool) "min_int is immediate" true
    (B.For_testing.is_small (b min_int));
  Alcotest.(check bool) "2^62 - 2^62 demotes" true
    (B.For_testing.is_small (B.sub two62 two62));
  check_b "of_string max_int is canonical" (b max_int)
    (B.of_string (string_of_int max_int));
  check_b "of_string min_int is canonical" (b min_int)
    (B.of_string (string_of_int min_int));
  (* neg of Big{+2^62} must demote back to the immediate min_int *)
  check_b "neg (neg min_int)" (b min_int) (B.neg (B.neg (b min_int)));
  Alcotest.(check bool) "neg (neg min_int) is immediate" true
    (B.For_testing.is_small (B.neg (B.neg (b min_int))));
  check_b "abs of Big{-2^62}" two62 (B.abs (B.neg two62));
  (* |min_int| ties |Big 2^62|, so the small-divided-by-big shortcut must
     not fire: min_int / 2^62 = -1 rem 0, not 0 rem min_int *)
  let q, r = B.divmod (b min_int) two62 in
  check_b "min_int / 2^62" (b (-1)) q;
  check_b "min_int mod 2^62" B.zero r;
  let q, r = B.divmod (b min_int) (B.neg two62) in
  check_b "min_int / -2^62" B.one q;
  check_b "min_int mod -2^62" B.zero r;
  let q, r = B.divmod (b (min_int + 1)) two62 in
  check_b "(min_int+1) / 2^62" B.zero q;
  check_b "(min_int+1) mod 2^62" (b (min_int + 1)) r

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let gen2 = QCheck2.Gen.pair Helpers.bigint_gen Helpers.bigint_gen
let gen3 = QCheck2.Gen.triple Helpers.bigint_gen Helpers.bigint_gen Helpers.bigint_gen

(* Ints biased towards the fixnum fast-path overflow boundaries. *)
let boundary_int_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            0; 1; -1; max_int; min_int; max_int - 1; min_int + 1;
            1 lsl 31; (1 lsl 31) - 1; -(1 lsl 31); -(1 lsl 31) - 1;
            999_999_999; 1_000_000_000; -1_000_000_000;
          ];
        int;
        int_range (-1000) 1000;
      ])

let boundary2 = QCheck2.Gen.pair boundary_int_gen boundary_int_gen

(* The fast path must agree with the limb path on the same inputs, and
   both must survive a decimal round-trip (the limb path is what
   of_string/to_string exercise for out-of-range values). *)
let roundtrips x = B.equal (B.of_string (B.to_string x)) x

let fast_slow_props =
  let module F = B.For_testing in
  [
    Helpers.qtest ~count:500 "fast/limb add agree" boundary2 (fun (x, y) ->
        let a = b x and c = b y in
        let r = B.add a c in
        B.equal r (F.slow_add a c) && roundtrips r);
    Helpers.qtest ~count:500 "fast/limb sub agree" boundary2 (fun (x, y) ->
        let a = b x and c = b y in
        let r = B.sub a c in
        B.equal r (F.slow_sub a c) && roundtrips r);
    Helpers.qtest ~count:500 "fast/limb mul agree" boundary2 (fun (x, y) ->
        let a = b x and c = b y in
        let r = B.mul a c in
        B.equal r (F.slow_mul a c) && roundtrips r);
    Helpers.qtest ~count:500 "fast/limb divmod agree" boundary2
      (fun (x, y) ->
        y = 0
        ||
        let a = b x and c = b y in
        let q, r = B.divmod a c in
        let q', r' = F.slow_divmod a c in
        B.equal q q' && B.equal r r' && roundtrips q && roundtrips r);
    Helpers.qtest ~count:500 "fast/limb gcd agree" boundary2 (fun (x, y) ->
        let a = b x and c = b y in
        let r = B.gcd a c in
        B.equal r (F.slow_gcd a c) && roundtrips r);
    Helpers.qtest ~count:500 "fast/limb compare agree" boundary2
      (fun (x, y) ->
        let a = b x and c = b y in
        B.compare a c = F.slow_compare a c);
    (* the same agreements on multi-limb operands, where the fast path
       must take its fallback branch *)
    Helpers.qtest "fast/limb add agree (big)" gen2 (fun (x, y) ->
        B.equal (B.add x y) (F.slow_add x y));
    Helpers.qtest "fast/limb mul agree (big)" gen2 (fun (x, y) ->
        B.equal (B.mul x y) (F.slow_mul x y));
    Helpers.qtest "Stein gcd = Euclid gcd (big)" gen2 (fun (x, y) ->
        B.equal (B.gcd x y) (F.slow_gcd x y));
    Helpers.qtest "fast/limb compare agree (big)" gen2 (fun (x, y) ->
        B.compare x y = F.slow_compare x y);
    (* canonical-form invariant: a value is stored immediate iff it fits
       a native int, whichever path produced it *)
    Helpers.qtest "canonical representation" gen2 (fun (x, y) ->
        let canonical r = F.is_small r = (B.to_int r <> None) in
        canonical (B.add x y) && canonical (B.sub x y)
        && canonical (B.mul x y)
        && canonical (F.slow_add x y)
        && canonical (F.slow_mul x y));
    Helpers.qtest ~count:500 "string roundtrip at boundaries"
      boundary_int_gen (fun x -> roundtrips (b x));
    (* |x| < 2^k for k = bits_bound x, exact on immediates *)
    Helpers.qtest "bits_bound bounds |x|" Helpers.bigint_gen (fun x ->
        let k = B.bits_bound x in
        B.compare (B.abs x) (B.pow B.two k) < 0
        && (B.is_zero x || B.compare (B.abs x) (B.pow B.two (k - 1)) >= 0
            || not (F.is_small x)));
    Helpers.qtest ~count:500 "bits_bound at boundaries" boundary_int_gen
      (fun x ->
        let k = B.bits_bound (b x) in
        B.compare (B.abs (b x)) (B.pow B.two k) < 0
        && (x = 0 || B.compare (B.abs (b x)) (B.pow B.two (k - 1)) >= 0));
  ]

let props =
  [
    Helpers.qtest "add commutative" gen2 (fun (x, y) -> let open B.Infix in x + y = y + x);
    Helpers.qtest "add associative" gen3 (fun (x, y, z) ->
        let open B.Infix in
        x + y + z = x + (y + z));
    Helpers.qtest "mul commutative" gen2 (fun (x, y) -> let open B.Infix in x * y = y * x);
    Helpers.qtest "mul associative" gen3 (fun (x, y, z) ->
        let open B.Infix in
        x * y * z = x * (y * z));
    Helpers.qtest "distributivity" gen3 (fun (x, y, z) ->
        let open B.Infix in
        x * (y + z) = (x * y) + (x * z));
    Helpers.qtest "sub inverse" gen2 (fun (x, y) -> let open B.Infix in x - y + y = x);
    Helpers.qtest "neg involution" Helpers.bigint_gen (fun x ->
        B.equal (B.neg (B.neg x)) x);
    Helpers.qtest "divmod identity" gen2 (fun (x, y) ->
        B.is_zero y
        ||
        let q, r = B.divmod x y in
        B.equal (B.add (B.mul q y) r) x
        && B.compare (B.abs r) (B.abs y) < 0
        && (B.is_zero r || B.sign r = B.sign x));
    Helpers.qtest "string roundtrip" Helpers.bigint_gen (fun x ->
        B.equal (B.of_string (B.to_string x)) x);
    Helpers.qtest "gcd divides" gen2 (fun (x, y) ->
        let g = B.gcd x y in
        if B.is_zero g then B.is_zero x && B.is_zero y
        else B.is_zero (B.rem x g) && B.is_zero (B.rem y g));
    Helpers.qtest "gcd linearity" gen2 (fun (x, y) ->
        (* gcd(x, y) = gcd(y, x) and gcd(x+y, y) = gcd(x, y) *)
        B.equal (B.gcd x y) (B.gcd y x)
        && B.equal (B.gcd (B.add x y) y) (B.gcd x y));
    Helpers.qtest "compare antisymmetric" gen2 (fun (x, y) ->
        B.compare x y = -B.compare y x);
    Helpers.qtest "int embedding" QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, c) -> B.to_int_exn (B.add (b a) (b c)) = a + c);
    Helpers.qtest "int embedding mul" QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, c) -> B.to_int_exn (B.mul (b a) (b c)) = a * c);
    Helpers.qtest "hash equal on equal" gen2 (fun (x, y) ->
        (not (B.equal x y)) || B.hash x = B.hash y);
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string forms" `Quick test_of_string_forms;
          Alcotest.test_case "small arithmetic" `Quick test_arith_small;
          Alcotest.test_case "min_int division" `Quick test_min_int_division;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "ordering" `Quick test_compare_order;
          Alcotest.test_case "karatsuba" `Quick test_karatsuba_crossover;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "fixnum boundaries" `Quick test_fixnum_boundaries;
        ] );
      ("properties", props);
      ("fast vs limb path", fast_slow_props);
    ]
