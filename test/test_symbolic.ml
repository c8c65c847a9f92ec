(* Tests for the symbolic Theorem 8 verifier. *)

module Q = Rational

let test_utility_function_matches_mechanism () =
  (* On a structure-constant stretch the rational function must equal the
     mechanism's exact utility. *)
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  let v = 0 in
  let total = Graph.weight g v in
  let w1 = Q.of_ints 3 4 in
  let s = Sybil.split_free g ~v ~w1 ~w2:(Q.sub total w1) in
  let structure = Decompose.compute s.Sybil.path in
  let num, den = Symbolic.utility_function g ~v ~structure ~v2:s.Sybil.v2 in
  Helpers.check_q "N/D = mechanism"
    (Sybil.split_utility g ~v ~w1)
    (Q.div (Poly.eval num w1) (Poly.eval den w1))

let certify g v =
  match Symbolic.verify_theorem8 g ~v with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_certifies_known_instances () =
  List.iter
    (fun (name, g, v) ->
      let r = certify g v in
      Alcotest.(check bool) (name ^ " certified") true r.Symbolic.certified;
      Alcotest.(check bool)
        (name ^ " best <= 2 honest")
        true
        (Qx.compare_q r.Symbolic.best_found (Q.mul_int r.Symbolic.honest 2)
        <= 0))
    [
      ("plain ring", Generators.ring_of_ints [| 3; 1; 4; 1; 5 |], 0);
      ("uniform", Generators.ring_of_ints [| 5; 5; 5; 5 |], 0);
      ("family k=2", Lower_bound.family ~k:2, 0);
      ("engineered", Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |], 0);
    ]

let test_best_found_beats_grid_search () =
  (* The exact maximum dominates every sampled split. *)
  let g = Lower_bound.family ~k:3 in
  let r = certify g 0 in
  let grid_best = (Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:1 ()) g ~v:0).utility in
  Alcotest.(check bool) "symbolic >= grid" true
    (Qx.compare_q r.Symbolic.best_found grid_best >= 0)

let test_best_found_is_exact_optimum () =
  (* The certified maximum is the exact sweep's optimum (or the honest
     utility, when no split beats it). *)
  List.iter
    (fun (name, g, v) ->
      let r = certify g v in
      let e = Incentive.best_split_exact g ~v in
      Alcotest.(check string) name
        (Qx.to_string
           (Qx.max (Qx.of_q r.Symbolic.honest) e.Incentive.utility_exact))
        (Qx.to_string r.Symbolic.best_found))
    [
      ("mixed ring", Generators.ring_of_ints [| 7; 2; 9; 4; 3 |], 0);
      ("family k=3", Lower_bound.family ~k:3, 0);
      ("irrational optimum", Instances.ring ~seed:8 ~n:10 (Weights.Uniform (1, 100)), 0);
    ]

(* The pieces tile [0, w_v] with no gaps; and wherever a piece's bound
   holds, the Sturm oracle agrees that 2·U_v·D − N ≥ 0 and D ≥ 0 on the
   closed piece (on a rational sub-piece around the sample when a bound
   is irrational). *)
let check_pieces g v =
  let r = certify g v in
  let w = Graph.weight g v in
  let rec tiled = function
    | (a : Symbolic.interval) :: (b :: _ as rest) ->
        Qx.equal a.hi b.lo && tiled rest
    | [ last ] -> Qx.compare_q last.hi w = 0
    | [] -> false
  in
  Alcotest.(check bool) "pieces tile [0, w]" true
    (Qx.compare_q (List.hd r.Symbolic.intervals).lo Q.zero = 0
    && tiled r.Symbolic.intervals);
  let two_h = Q.mul_int r.Symbolic.honest 2 in
  List.iter
    (fun (iv : Symbolic.interval) ->
      if iv.bound_holds && not (Qx.equal iv.lo iv.hi) then begin
        let inner x y = Qx.rational_between x y in
        let mid = inner iv.lo iv.hi in
        let lo =
          if Qx.is_rational iv.lo then Qx.to_q_exn iv.lo
          else inner iv.lo (Qx.of_q mid)
        and hi =
          if Qx.is_rational iv.hi then Qx.to_q_exn iv.hi
          else inner (Qx.of_q mid) iv.hi
        in
        let margin = Poly.sub (Poly.scale two_h iv.den) iv.num in
        Alcotest.(check bool) "margin non-negative on the piece" true
          (Sign_oracle.non_negative_on margin ~lo ~hi);
        Alcotest.(check bool) "denominator non-negative on the piece" true
          (Sign_oracle.non_negative_on iv.den ~lo ~hi)
      end)
    r.Symbolic.intervals

let test_interval_structure () =
  check_pieces (Generators.ring_of_ints [| 7; 2; 9; 4; 3 |]) 0;
  check_pieces (Lower_bound.family ~k:2) 0

let props =
  [
    Helpers.qtest ~count:10 "certifies random rings"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        match Symbolic.verify_theorem8 g ~v:0 with
        | Ok r -> r.Symbolic.certified
        | Error _ -> false);
  ]

let () =
  Alcotest.run "symbolic"
    [
      ( "unit",
        [
          Alcotest.test_case "utility function" `Quick test_utility_function_matches_mechanism;
          Alcotest.test_case "certifies instances" `Slow test_certifies_known_instances;
          Alcotest.test_case "beats grid search" `Quick test_best_found_beats_grid_search;
          Alcotest.test_case "maximum is the exact optimum" `Quick
            test_best_found_is_exact_optimum;
          Alcotest.test_case "interval structure" `Quick test_interval_structure;
        ] );
      ("properties", props);
    ]
