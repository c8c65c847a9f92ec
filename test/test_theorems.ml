(* End-to-end checks of every machine-checkable statement, on named
   instances.  The per-statement property tests live in the other suites;
   this one exercises the aggregated checkers. *)

module Q = Rational

let fig1 = Generators.fig1

let test_prop3 () =
  List.iter
    (fun g ->
      match Theorems.proposition3 g with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [
      fig1 ();
      Generators.ring_of_ints [| 1; 2; 3; 4; 5 |];
      Generators.path_of_ints [| 5; 1; 5 |];
      Generators.complete (Array.map Q.of_int [| 1; 2; 3; 4 |]);
      Generators.star (Array.map Q.of_int [| 1; 5; 5 |]);
      Lower_bound.family ~k:3;
    ]

let test_prop6 () =
  List.iter
    (fun g ->
      match Theorems.proposition6 g with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [
      fig1 ();
      Generators.ring_of_ints [| 1; 2; 3; 4; 5 |];
      Lower_bound.family ~k:2;
    ]

let test_thm10_and_prop11 () =
  let g = Lower_bound.family ~k:2 in
  for v = 0 to Graph.n g - 1 do
    (match Theorems.theorem10 ~samples:10 g ~v with
    | Ok () -> ()
    | Error m -> Alcotest.failf "thm10 v=%d: %s" v m);
    match Theorems.proposition11 ~samples:10 g ~v with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "prop11 v=%d: %s" v m
  done

let test_prop12 () =
  List.iter
    (fun g ->
      match Theorems.proposition12 g ~v:0 with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ Generators.ring_of_ints [| 5; 5; 5; 5 |]; Lower_bound.family ~k:1 ]

let test_lemma9 () =
  let g = Lower_bound.family ~k:2 in
  for v = 0 to Graph.n g - 1 do
    match Theorems.lemma9 g ~v with
    | Ok () -> ()
    | Error m -> Alcotest.failf "v=%d: %s" v m
  done

let test_lemma14_20 () =
  let g = Lower_bound.family ~k:2 in
  for v = 0 to Graph.n g - 1 do
    match Theorems.lemma14_20 g ~v with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "v=%d: %s" v m
  done

let test_theorem8_tight_family () =
  (* The family attack gets close to 2 but the checker still approves. *)
  let g = Lower_bound.family ~k:5 in
  match Theorems.theorem8 ~ctx:(Engine.Ctx.make ~grid:24 ~refine:3 ()) g with
  | Ok a ->
      Alcotest.(check bool) "ratio in (1.9, 2]" true
        (Q.compare a.Incentive.ratio (Q.of_ints 19 10) > 0
        && Q.compare a.Incentive.ratio Q.two <= 0)
  | Error m -> Alcotest.fail m

let test_lemma13 () =
  List.iter
    (fun (name, g, v) ->
      match Theorems.lemma13 g ~v with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    [
      ("mixed ring", Generators.ring_of_ints [| 7; 2; 9; 4; 3 |], 0);
      ("family", Lower_bound.family ~k:2, 0);
      ("uniform", Generators.ring_of_ints [| 5; 5; 5; 5 |], 0);
    ]

let test_lemmas15_21 () =
  List.iter
    (fun (name, g, v) ->
      match Theorems.lemmas15_21 g ~v with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    [
      ("uniform even ring", Generators.ring_of_ints [| 4; 4; 4; 4 |], 0);
      ("family", Lower_bound.family ~k:2, 0);
      ("mixed", Generators.ring_of_ints [| 7; 2; 9; 4; 3 |], 2);
    ]

let test_corollaries () =
  List.iter
    (fun (name, g, v) ->
      match Theorems.corollaries17_23 ~ctx:(Engine.Ctx.make ~grid:12 ~refine:1 ()) g ~v with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    [
      ("family (B class)", Lower_bound.family ~k:2, 0);
      ("profitable engineered", Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |], 0);
      ("C class vertex", Generators.ring_of_ints [| 1; 10; 1; 10 |], 0);
    ]

let test_stage_lemmas_family () =
  match Theorems.stage_lemmas ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ()) (Lower_bound.family ~k:2) ~v:0 with
  | Ok r -> Alcotest.(check bool) "all pass" true (Stages.all_checks_pass r)
  | Error m -> Alcotest.fail m

let props =
  [
    Helpers.qtest ~count:8 "Lemma 13 on random rings"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        match Theorems.lemma13 g ~v:0 with
        | Ok () -> true
        | Error _ -> false);
    Helpers.qtest ~count:15 "Lemmas 15/21 on random rings"
      (Helpers.ring_gen ~nmax:7 ~wmax:20 ()) (fun g ->
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          match Theorems.lemmas15_21 g ~v with
          | Ok () -> ()
          | Error _ -> ok := false
        done;
        !ok);
    Helpers.qtest ~count:8 "Corollaries 17/23 on random rings"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        match Theorems.corollaries17_23 ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v:0 with
        | Ok () -> true
        | Error _ -> false);
  ]

let () =
  Alcotest.run "theorems"
    [
      ( "checkers",
        [
          Alcotest.test_case "Proposition 3" `Quick test_prop3;
          Alcotest.test_case "Proposition 6" `Quick test_prop6;
          Alcotest.test_case "Theorem 10 + Proposition 11" `Quick test_thm10_and_prop11;
          Alcotest.test_case "Proposition 12" `Quick test_prop12;
          Alcotest.test_case "Lemma 9" `Quick test_lemma9;
          Alcotest.test_case "Lemma 13" `Quick test_lemma13;
          Alcotest.test_case "Lemmas 15/21" `Quick test_lemmas15_21;
          Alcotest.test_case "Corollaries 17/23" `Quick test_corollaries;
          Alcotest.test_case "Lemmas 14/20" `Quick test_lemma14_20;
          Alcotest.test_case "Theorem 8 on tight family" `Slow test_theorem8_tight_family;
          Alcotest.test_case "stage lemmas on family" `Quick test_stage_lemmas_family;
        ] );
      ("properties", props);
    ]
