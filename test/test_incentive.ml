(* Tests for the incentive-ratio search: Theorem 8 (ratio <= 2), the
   tightness family and search mechanics. *)

module Q = Rational

let check_q = Helpers.check_q

let test_best_split_includes_honest () =
  (* The search must never report worse than honest play (w1 = w1⁰ is in
     the candidate set and achieves exactly U_v by Lemma 9). *)
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  for v = 0 to 4 do
    let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v in
    Alcotest.(check bool)
      (Printf.sprintf "ratio >= 1 at v=%d" v)
      true
      (Q.compare a.ratio Q.one >= 0)
  done

let test_uniform_ring_truthful () =
  (* Equal weights: no Sybil attack can gain anything. *)
  List.iter
    (fun n ->
      let g = Generators.ring_of_ints (Array.make n 1) in
      let a = Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ()) g in
      check_q (Printf.sprintf "n=%d" n) Q.one a.ratio)
    [ 3; 4; 5; 6 ]

let test_known_profitable_instance () =
  (* Found by this repository's own search: the ratio is large and the
     attacker is vertex 0. *)
  let g = Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |] in
  let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ()) g ~v:0 in
  Alcotest.(check bool) "ratio > 1.9" true
    (Q.compare a.ratio (Q.of_ints 19 10) > 0);
  Alcotest.(check bool) "ratio <= 2" true (Q.compare a.ratio Q.two <= 0)

let test_theorem8_families () =
  List.iter
    (fun weights ->
      let g = Generators.ring_of_ints weights in
      match Theorems.theorem8 ~ctx:(Engine.Ctx.make ~grid:12 ~refine:2 ()) g with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    [
      [| 1; 2; 3; 4 |];
      [| 10; 1; 10; 1; 10 |];
      [| 5; 5; 1; 5; 5; 1 |];
      [| 200; 40; 10000; 10; 1 |];
    ]

let test_budget_charges_distinct_points_once () =
  (* The sweep dedupes candidate points and memoises evaluations, so the
     budget is charged once per distinct split.  Naively this search
     costs (grid+2) + 2*(grid+1) = 28 evaluations (round one plus two
     zoom rounds); each zoom round re-visits at least its centre (the
     previous best), so the deduped count must come in strictly lower. *)
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  let cost = 1 + Graph.n g in
  let budget = Budget.create ~steps:max_int () in
  ignore (Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:2 ()) ~budget g ~v:0);
  let steps = Budget.used_steps budget in
  Alcotest.(check int) "budget charged in whole evaluations" 0 (steps mod cost);
  let evals = steps / cost in
  Alcotest.(check bool)
    (Printf.sprintf "deduped (%d evals)" evals)
    true (evals < 28);
  Alcotest.(check bool) "still sweeps" true (evals >= 9)

let test_parallel_inner_sweep_deterministic () =
  (* ~domains parallelises the grid-point evaluations inside one search;
     the reported attack must be bit-identical to the sequential one. *)
  let g = Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |] in
  let a1 = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ()) g ~v:0 in
  let a2 = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ~domains:4 ()) g ~v:0 in
  check_q "same w1" a1.Incentive.w1 a2.Incentive.w1;
  check_q "same utility" a1.Incentive.utility a2.Incentive.utility;
  check_q "same honest" a1.Incentive.honest a2.Incentive.honest;
  check_q "same ratio" a1.Incentive.ratio a2.Incentive.ratio

let test_shared_honest_matches_per_vertex () =
  (* best_attack shares one decomposition for the honest utilities; the
     result must match what per-vertex recomputation reports. *)
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 6 |] in
  let a = Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g in
  let b = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v:a.Incentive.v in
  check_q "same honest" a.Incentive.honest b.Incentive.honest;
  check_q "same ratio" a.Incentive.ratio b.Incentive.ratio

(* The grid search's answers and work counts, pinned over a battery:
   60 seeded rings (n = 3..12, three weight distributions) plus a ring
   with zero weights, every vertex, five (grid, refine) settings at
   k = 2, and (grid, refine) = (6, 1) at k = 3 on the rings with
   n ≤ 6.  The digests hash one "v w1 utility ratio" line per search. *)
let pin_rings () =
  let dists =
    Weights.[| Uniform (1, 100); Powerlaw (1000, 2.0); Bimodal (1, 100, 0.3) |]
  in
  List.init 60 (fun i ->
      Instances.ring ~seed:(i + 1) ~n:(3 + (i mod 10)) dists.(i mod 3))
  @ [ Generators.ring_of_ints [| 0; 4; 0; 7; 2; 0 |] ]

let test_grid_pins () =
  Obs.reset ();
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) @@ fun () ->
  let rings = pin_rings () in
  let buf = Buffer.create 65536 in
  let line v ws (u : Q.t) (r : Q.t) =
    Buffer.add_string buf
      (Printf.sprintf "%d %s %s %s\n" v ws (Q.to_string u) (Q.to_string r))
  in
  List.iter
    (fun (grid, refine) ->
      let ctx = Engine.Ctx.make ~grid ~refine () in
      List.iter
        (fun g ->
          for v = 0 to Graph.n g - 1 do
            let a = Incentive.best_split ~ctx g ~v in
            line v (Q.to_string a.w1) a.utility a.ratio
          done)
        rings)
    [ (8, 1); (32, 3); (12, 2); (6, 0); (2, 4) ];
  let s = Obs.snapshot () in
  let count name = Obs.counter_value s ~subsystem:"incentive" name in
  let k2 = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.clear buf;
  let ctx = Engine.Ctx.make ~grid:6 ~refine:1 ~identities:3 () in
  List.iter
    (fun g ->
      if Graph.n g <= 6 then
        for v = 0 to Graph.n g - 1 do
          let a = Incentive.best_splitk ~ctx g ~v in
          line v
            (String.concat ";" (Array.to_list (Array.map Q.to_string a.weights)))
            a.utility a.ratio
        done)
    rings;
  let k3 = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check string) "k = 2 digest" "4749382fa0ba8608d0d9e8db5c50275b" k2;
  Alcotest.(check string) "k = 3 digest" "eef2af49c9007795efc04bed4e10c0fb" k3;
  Alcotest.(check int) "k = 2 memo_lookups" 96317 (count "memo_lookups");
  Alcotest.(check int) "k = 2 memo_hits" 10867 (count "memo_hits");
  Alcotest.(check int) "k = 2 sweep_points" 97863 (count "sweep_points");
  Alcotest.(check int) "k = 2 sweep_points_deduped" 96317
    (count "sweep_points_deduped")

(* ------------------------------------------------------------------ *)
(* Tightness family (Lower_bound)                                      *)
(* ------------------------------------------------------------------ *)

let test_family_structure () =
  let g = Lower_bound.family ~k:3 in
  Alcotest.(check bool) "is ring" true (Graph.is_ring g);
  Alcotest.(check int) "five vertices" 5 (Graph.n g);
  check_q "honest utility is 1" Q.one
    (Sybil.honest_utility g ~v:Lower_bound.attacker)

let test_family_closed_form () =
  (* The closed form must match the full mechanism exactly. *)
  List.iter
    (fun k ->
      let g = Lower_bound.family ~k in
      List.iter
        (fun eps ->
          let w1 = Q.sub (Q.of_int (20 * k)) eps in
          check_q
            (Printf.sprintf "k=%d eps=%s" k (Q.to_string eps))
            (Lower_bound.ratio_at ~k ~epsilon:eps)
            (Sybil.split_utility g ~v:0 ~w1))
        [ Q.of_ints 1 2; Q.of_ints 1 7; Q.of_ints 9 10 ])
    [ 1; 2; 5 ]

let test_family_approaches_two () =
  let r1 = Lower_bound.supremum_ratio ~k:1 in
  let r10 = Lower_bound.supremum_ratio ~k:10 in
  let r100 = Lower_bound.supremum_ratio ~k:100 in
  check_q "k=1" (Q.of_ints 11 6) r1;
  check_q "k=10" (Q.of_ints 101 51) r10;
  Alcotest.(check bool) "monotone" true
    (Q.compare r1 r10 < 0 && Q.compare r10 r100 < 0);
  Alcotest.(check bool) "below 2" true (Q.compare r100 Q.two < 0)

let test_family_measured_close_to_sup () =
  let k = 4 in
  let measured = Lower_bound.measured_ratio ~ctx:(Engine.Ctx.make ~grid:32 ~refine:3 ()) ~k () in
  let sup = Lower_bound.supremum_ratio ~k in
  Alcotest.(check bool) "measured <= sup" true (Q.compare measured sup <= 0);
  (* the grid search must get within 2% of the supremum *)
  Alcotest.(check bool) "measured close" true
    (Q.compare measured (Q.mul sup (Q.of_ints 49 50)) >= 0)

let test_family_validation () =
  Alcotest.check_raises "k >= 1"
    (Invalid_argument "Lower_bound.family: k must be >= 1") (fun () ->
      ignore (Lower_bound.family ~k:0))

(* ------------------------------------------------------------------ *)
(* Properties: the headline theorem                                    *)
(* ------------------------------------------------------------------ *)

let props =
  [
    Helpers.qtest ~count:25 "Theorem 8: ratio <= 2 on random rings"
      (Helpers.ring_gen ~nmax:7 ~wmax:40 ()) (fun g ->
        match Theorems.theorem8 ~ctx:(Engine.Ctx.make ~grid:10 ~refine:1 ()) g with
        | Ok a -> Q.compare a.Incentive.ratio Q.two <= 0
        | Error _ -> false);
    Helpers.qtest ~count:25 "search reports a real achievable utility"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v:0 in
        Q.equal a.Incentive.utility
          (Sybil.split_utility g ~v:0 ~w1:a.Incentive.w1));
  ]

let () =
  Alcotest.run "incentive"
    [
      ( "unit",
        [
          Alcotest.test_case "includes honest" `Quick test_best_split_includes_honest;
          Alcotest.test_case "uniform rings truthful" `Slow test_uniform_ring_truthful;
          Alcotest.test_case "profitable instance" `Quick test_known_profitable_instance;
          Alcotest.test_case "Theorem 8 known rings" `Slow test_theorem8_families;
          Alcotest.test_case "budget dedupes points" `Quick
            test_budget_charges_distinct_points_once;
          Alcotest.test_case "parallel inner sweep" `Quick
            test_parallel_inner_sweep_deterministic;
          Alcotest.test_case "shared honest decomposition" `Quick
            test_shared_honest_matches_per_vertex;
          Alcotest.test_case "grid answers and work pinned" `Quick
            test_grid_pins;
        ] );
      ( "tightness family",
        [
          Alcotest.test_case "structure" `Quick test_family_structure;
          Alcotest.test_case "closed form = mechanism" `Quick test_family_closed_form;
          Alcotest.test_case "approaches 2" `Quick test_family_approaches_two;
          Alcotest.test_case "measured near sup" `Slow test_family_measured_close_to_sup;
          Alcotest.test_case "validation" `Quick test_family_validation;
        ] );
      ("properties", props);
    ]
