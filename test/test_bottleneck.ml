(* Tests for the bottleneck decomposition: the three solvers, the
   decomposition driver, Proposition 3 invariants and the class
   machinery. *)

module Q = Rational

let q = Q.of_ints
let check_q = Helpers.check_q
let check_vset = Helpers.check_vset
let vs = Vset.of_list

(* ------------------------------------------------------------------ *)
(* Fig. 1 ground truth                                                 *)
(* ------------------------------------------------------------------ *)

let test_fig1 () =
  let g = Generators.fig1 () in
  match Decompose.compute g with
  | [ p1; p2 ] ->
      check_vset "B1" (vs [ 0; 1 ]) p1.Decompose.b;
      check_vset "C1" (vs [ 2 ]) p1.Decompose.c;
      check_q "alpha1" (q 1 3) p1.Decompose.alpha;
      check_vset "B2" (vs [ 3; 4; 5 ]) p2.Decompose.b;
      check_vset "C2" (vs [ 3; 4; 5 ]) p2.Decompose.c;
      check_q "alpha2" Q.one p2.Decompose.alpha
  | d -> Alcotest.failf "expected 2 pairs, got %d" (List.length d)

let test_fig1_all_solvers () =
  let g = Generators.fig1 () in
  let d_flow = Decompose.compute ~ctx:(Engine.Ctx.make ~solver:Decompose.Flow ()) g in
  let d_brute = Decompose.compute ~ctx:(Engine.Ctx.make ~solver:Decompose.Brute ()) g in
  Alcotest.(check bool) "flow = brute" true (Decompose.equal d_flow d_brute)

(* ------------------------------------------------------------------ *)
(* Hand-checked small cases                                            *)
(* ------------------------------------------------------------------ *)

let test_single_edge () =
  (* Two vertices exchanging everything: alpha = 1 pair when weights are
     equal, B/C split otherwise. *)
  let g = Generators.path_of_ints [| 2; 2 |] in
  (match Decompose.compute g with
  | [ p ] ->
      check_vset "B = both" (vs [ 0; 1 ]) p.Decompose.b;
      check_q "alpha = 1" Q.one p.Decompose.alpha
  | _ -> Alcotest.fail "expected one pair");
  let g = Generators.path_of_ints [| 1; 3 |] in
  match Decompose.compute g with
  | [ p ] ->
      check_vset "light side is B" (vs [ 1 ]) p.Decompose.b;
      check_vset "heavy side is C" (vs [ 0 ]) p.Decompose.c;
      check_q "alpha = 1/3" (q 1 3) p.Decompose.alpha
  | _ -> Alcotest.fail "expected one pair"

let test_even_ring_uniform () =
  let g = Generators.ring_of_ints [| 1; 1; 1; 1 |] in
  match Decompose.compute g with
  | [ p ] ->
      check_q "alpha" Q.one p.Decompose.alpha;
      check_vset "all vertices" (vs [ 0; 1; 2; 3 ]) p.Decompose.b
  | _ -> Alcotest.fail "uniform even ring is one alpha=1 pair"

let test_odd_ring_uniform () =
  let g = Generators.ring_of_ints [| 1; 1; 1; 1; 1 |] in
  match Decompose.compute g with
  | [ p ] -> check_q "alpha" Q.one p.Decompose.alpha
  | _ -> Alcotest.fail "uniform odd ring is one alpha=1 pair"

let test_star_decomposition () =
  (* Star with a heavy centre: the centre is the bottleneck (it offers 10
     against the leaves' 3). *)
  let g = Generators.star (Array.map Q.of_int [| 10; 1; 1; 1 |]) in
  match Decompose.compute g with
  | [ p ] ->
      check_vset "centre is B" (vs [ 0 ]) p.Decompose.b;
      check_vset "leaves are C" (vs [ 1; 2; 3 ]) p.Decompose.c;
      check_q "alpha" (q 3 10) p.Decompose.alpha
  | _ -> Alcotest.fail "expected one pair"

let test_zero_weight_identity () =
  (* A zero-weight leaf joins the bottleneck side (paper Case C-2 needs
     this): path (0, 5, 5). *)
  let g = Generators.path_of_ints [| 0; 5; 5 |] in
  let d = Decompose.compute g in
  let cls = Classes.of_decomposition g d in
  (* vertices 1 and 2 form an alpha = 1 pair; vertex 0 pairs with nothing
     to give and sits in a B-side singleton. *)
  Alcotest.(check bool) "v0 utility 0" true
    (Q.is_zero (Utility.of_vertex g d 0));
  Alcotest.(check bool) "some classification exists" true
    (Array.length cls = 3)

let test_all_zero_rejected () =
  let g = Generators.path_of_ints [| 0; 0 |] in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Decompose.compute: all weights are zero") (fun () ->
      ignore (Decompose.compute g))

(* ------------------------------------------------------------------ *)
(* Solver agreement and invariants (properties)                        *)
(* ------------------------------------------------------------------ *)

let agree solver_a solver_b g =
  Decompose.equal (Decompose.compute ~ctx:(Engine.Ctx.make ~solver:solver_a ()) g)
    (Decompose.compute ~ctx:(Engine.Ctx.make ~solver:solver_b ()) g)

let props =
  [
    Helpers.qtest ~count:120 "flow = brute on random graphs"
      (Helpers.graph_gen ()) (fun g -> agree Decompose.Flow Decompose.Brute g);
    Helpers.qtest ~count:120 "chain = brute on rings" (Helpers.ring_gen ())
      (fun g -> agree Decompose.FastChain Decompose.Brute g);
    Helpers.qtest ~count:120 "chain = flow on paths"
      (Helpers.path_gen ~allow_zero:true ()) (fun g ->
        agree Decompose.FastChain Decompose.Flow g);
    Helpers.qtest ~count:120 "Proposition 3 on rings" (Helpers.ring_gen ())
      (fun g ->
        match Decompose.validate g (Decompose.compute g) with
        | Ok () -> true
        | Error _ -> false);
    Helpers.qtest ~count:100 "Proposition 3 on random graphs"
      (Helpers.graph_gen ()) (fun g ->
        match Decompose.validate g (Decompose.compute g) with
        | Ok () -> true
        | Error _ -> false);
    Helpers.qtest ~count:80 "alpha_1 is the minimum alpha ratio"
      (Helpers.ring_gen ~nmax:8 ()) (fun g ->
        match Decompose.compute g with
        | [] -> false
        | p :: _ ->
            Q.equal p.Decompose.alpha
              (Brute.min_alpha g ~mask:(Graph.full_mask g)));
    Helpers.qtest ~count:80 "pair membership is a partition"
      (Helpers.graph_gen ()) (fun g ->
        let d = Decompose.compute g in
        let total =
          List.fold_left
            (fun acc (p : Decompose.pair) ->
              acc + Vset.cardinal (Vset.union p.b p.c))
            0 d
        in
        let union =
          List.fold_left
            (fun acc (p : Decompose.pair) ->
              Vset.union acc (Vset.union p.b p.c))
            Vset.empty d
        in
        total = Graph.n g && Vset.cardinal union = Graph.n g);
    Helpers.qtest ~count:60 "chain oracle h(alpha*) = 0 at own ratio"
      (Helpers.ring_gen ~nmax:8 ()) (fun g ->
        let mask = Graph.full_mask g in
        let b = Chain_fast.maximal_bottleneck g ~mask in
        let alpha = Graph.alpha_of_set g b in
        let h, smax = Chain_fast.h_and_argmax g ~mask ~alpha in
        Q.is_zero h && Vset.equal smax b);
    Helpers.qtest ~count:60 "flow oracle h(alpha*) = 0 at own ratio"
      (Helpers.graph_gen ~nmax:7 ()) (fun g ->
        let mask = Graph.full_mask g in
        let b = Flow_solver.maximal_bottleneck g ~mask in
        let alpha = Graph.alpha_of_set ~mask g b in
        let h, smax = Flow_solver.h_and_argmax g ~mask ~alpha in
        Q.is_zero h && Vset.equal smax b);
  ]

(* ------------------------------------------------------------------ *)
(* Classes                                                             *)
(* ------------------------------------------------------------------ *)

let test_classes_fig1 () =
  let g = Generators.fig1 () in
  let d = Decompose.compute g in
  let cls = Classes.of_decomposition g d in
  Alcotest.(check bool) "v0 B" true (Classes.equal_cls cls.(0) Classes.B);
  Alcotest.(check bool) "v2 C" true (Classes.equal_cls cls.(2) Classes.C);
  Alcotest.(check bool) "v4 Both" true (Classes.equal_cls cls.(4) Classes.Both)

let test_refine_alternating () =
  (* alpha = 1 path of equal weights: refinement alternates around the
     anchor. *)
  let g = Generators.path_of_ints [| 1; 1 |] in
  let d = Decompose.compute g in
  let cls = Classes.refine_alternating g d ~anchor:0 in
  Alcotest.(check bool) "anchor C" true (Classes.equal_cls cls.(0) Classes.C);
  Alcotest.(check bool) "neighbour B" true (Classes.equal_cls cls.(1) Classes.B)

let test_refine_even_ring () =
  (* the whole uniform even ring is one alpha = 1 pair; its cycle is
     2-colourable, so the refinement alternates around it *)
  let g = Generators.ring_of_ints [| 2; 2; 2; 2 |] in
  let d = Decompose.compute g in
  let cls = Classes.refine_alternating g d ~anchor:0 in
  Alcotest.(check bool) "anchor C" true (Classes.equal_cls cls.(0) Classes.C);
  Alcotest.(check bool) "neighbour B" true (Classes.equal_cls cls.(1) Classes.B);
  Alcotest.(check bool) "opposite C" true (Classes.equal_cls cls.(2) Classes.C);
  Alcotest.(check bool) "other neighbour B" true (Classes.equal_cls cls.(3) Classes.B)

let test_refine_odd_cycle_stays_both () =
  let g = Generators.ring_of_ints [| 1; 1; 1 |] in
  let d = Decompose.compute g in
  let cls = Classes.refine_alternating g d ~anchor:0 in
  (* odd cycle is not 2-colourable: everything stays Both *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "Both" true (Classes.equal_cls c Classes.Both))
    cls

let test_may_exchange () =
  let g = Generators.fig1 () in
  let d = Decompose.compute g in
  Alcotest.(check bool) "B1-C1 edge" true (Classes.may_exchange g d 0 2);
  Alcotest.(check bool) "cross pair edge" false (Classes.may_exchange g d 2 3);
  Alcotest.(check bool) "alpha=1 internal" true (Classes.may_exchange g d 3 4);
  Alcotest.(check bool) "non-edge" false (Classes.may_exchange g d 0 5)

let () =
  Alcotest.run "bottleneck"
    [
      ( "fig1",
        [
          Alcotest.test_case "decomposition" `Quick test_fig1;
          Alcotest.test_case "solver agreement" `Quick test_fig1_all_solvers;
        ] );
      ( "small cases",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "even ring uniform" `Quick test_even_ring_uniform;
          Alcotest.test_case "odd ring uniform" `Quick test_odd_ring_uniform;
          Alcotest.test_case "star" `Quick test_star_decomposition;
          Alcotest.test_case "zero-weight leaf" `Quick test_zero_weight_identity;
          Alcotest.test_case "all-zero rejected" `Quick test_all_zero_rejected;
        ] );
      ( "classes",
        [
          Alcotest.test_case "fig1 classes" `Quick test_classes_fig1;
          Alcotest.test_case "refine alternating" `Quick test_refine_alternating;
          Alcotest.test_case "refine even ring" `Quick test_refine_even_ring;
          Alcotest.test_case "odd cycle Both" `Quick test_refine_odd_cycle_stays_both;
          Alcotest.test_case "may_exchange" `Quick test_may_exchange;
        ] );
      ("properties", props);
    ]
