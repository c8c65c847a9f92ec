(* Tests for decomposition breakpoint isolation (Proposition 12 support). *)

module Q = Rational

let test_no_events_on_flat_instance () =
  (* A two-vertex path where v's class never changes... the decomposition
     does change as x crosses the other weight; instead use a vertex whose
     variation cannot reorder anything: single edge with x in [0, w] and
     the partner's weight far larger keeps B = {v} throughout (the alpha
     value changes but the PAIR SETS stay equal only if alpha is part of
     equality...).  Decompose.same_structure compares alphas too, so events exist;
     assert the scan is consistent instead: events are ordered and
     bracket-tight. *)
  let g = Generators.path_of_ints [| 4; 100 |] in
  let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:16 ()) g ~v:0 in
  let w = Graph.weight g 0 in
  List.iter
    (fun (ev : Breakpoints.event) ->
      Alcotest.(check bool) "lo < hi" true (Q.compare ev.lo ev.hi < 0);
      Alcotest.(check bool) "in range" true
        (Q.sign ev.lo >= 0 && Q.compare ev.hi w <= 0);
      Alcotest.(check bool) "bracket tight" true
        (Q.compare (Q.sub ev.hi ev.lo) (Q.div_int w (1 lsl 18)) <= 0))
    events

let test_zero_weight_vertex_no_scan () =
  let g =
    Graph.of_int_weights ~weights:[| 0; 5; 5 |] ~edges:[ (0, 1); (1, 2) ]
  in
  Alcotest.(check int) "no range to scan" 0
    (List.length (Breakpoints.scan g ~v:0))

let test_uniform_ring_has_event () =
  (* Uniform even ring: at x = w_v everything is one alpha = 1 pair, at
     small x the decomposition differs -> at least one event. *)
  let g = Generators.ring_of_ints [| 5; 5; 5; 5 |] in
  let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:16 ()) g ~v:0 in
  Alcotest.(check bool) "at least one event" true (List.length events >= 1);
  (* events ordered by position *)
  let rec ordered = function
    | (a : Breakpoints.event) :: (b :: _ as rest) ->
        Q.compare a.hi b.lo <= 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered events)

let test_events_are_real_changes () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:24 ()) g ~v:0 in
  List.iter
    (fun (ev : Breakpoints.event) ->
      Alcotest.(check bool) "decompositions differ" false
        (Decompose.same_structure ev.before ev.after);
      (* endpoints really produce those decompositions *)
      Alcotest.(check bool) "before matches" true
        (Decompose.same_structure ev.before
           (Breakpoints.decomposition_at g ~v:0 ~x:ev.lo));
      Alcotest.(check bool) "after matches" true
        (Decompose.same_structure ev.after
           (Breakpoints.decomposition_at g ~v:0 ~x:ev.hi)))
    events

let test_classify_merge_or_split () =
  (* On the uniform even ring the event at the top of the range merges
     pairs into the single alpha = 1 pair as x grows. *)
  let g = Generators.ring_of_ints [| 5; 5; 5; 5 |] in
  let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:16 ()) g ~v:0 in
  Alcotest.(check bool) "classifiable" true
    (List.for_all
       (fun ev ->
         match Breakpoints.classify_event ev ~v:0 with
         | `Merge | `Split | `Other -> true)
       events)

let props =
  [
    Helpers.qtest ~count:20 "Proposition 12: class stable across events"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        match Theorems.proposition12 ~ctx:(Engine.Ctx.make ~grid:16 ()) g ~v:0 with
        | Ok () -> true
        | Error _ -> false);
    Helpers.qtest ~count:15 "scan finds every grid-visible change"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        let v = 0 in
        let w = Graph.weight g v in
        let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:12 ()) g ~v in
        (* between consecutive events the decomposition at the midpoints
           of event-free stretches equals the stretch endpoints' *)
        let boundaries =
          Q.zero
          :: List.concat_map
               (fun (ev : Breakpoints.event) -> [ ev.lo; ev.hi ])
               events
          @ [ w ]
        in
        let rec stretches = function
          | a :: (b :: _ as rest) -> (a, b) :: stretches rest
          | _ -> []
        in
        (* check only the event-free stretches: (hi_i, lo_i+1) pairs, which
           are the even-indexed stretches after inserting 0 and w *)
        let all = stretches boundaries in
        List.for_all
          (fun ((a : Q.t), (b : Q.t)) ->
            if Q.compare a b >= 0 then true
            else
              let da = Breakpoints.decomposition_at g ~v ~x:a in
              let db = Breakpoints.decomposition_at g ~v ~x:b in
              (* either this is an event bracket (allowed to differ) or a
                 flat stretch *)
              Decompose.same_structure da db
              || List.exists
                   (fun (ev : Breakpoints.event) ->
                     Q.equal ev.lo a && Q.equal ev.hi b)
                   events)
          all);
  ]

let continuity_prop =
  (* Theorem 10 also gives continuity of U_v(x): across every isolated
     breakpoint bracket, the utility jump is bounded by what the narrow
     bracket allows (a crude Lipschitz-style check: |U(hi) - U(lo)| small
     relative to the full range). *)
  Helpers.qtest ~count:12 "utility continuous across breakpoints"
    (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
      let v = 0 in
      let events = Breakpoints.scan ~ctx:(Engine.Ctx.make ~grid:12 ()) g ~v in
      let u x = (Misreport.at g ~v ~x).Misreport.utility in
      let range =
        Q.to_float (Sybil.honest_utility g ~v) +. 1.0
      in
      List.for_all
        (fun (ev : Breakpoints.event) ->
          let jump = Q.to_float (Q.abs (Q.sub (u ev.hi) (u ev.lo))) in
          (* bracket width is ~w * 2^-20; a genuine discontinuity would
             show up as a jump comparable to the utility scale *)
          jump < 0.01 *. range)
        events)

let split_scan_prop =
  Helpers.qtest ~count:10 "split-parameter scan events are real"
    (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
      let v = 0 in
      let events = Breakpoints.scan_split ~ctx:(Engine.Ctx.make ~grid:12 ()) g ~v in
      let w = Graph.weight g v in
      List.for_all
        (fun (ev : Breakpoints.event) ->
          let d_at w1 =
            let s = Sybil.split_free g ~v ~w1 ~w2:(Q.sub w w1) in
            Decompose.compute s.Sybil.path
          in
          (not (Decompose.same_structure ev.before ev.after))
          && Decompose.same_structure ev.before (d_at ev.lo)
          && Decompose.same_structure ev.after (d_at ev.hi))
        events)

(* Regression for the documented even-event blindness of the grid scan:
   on the ring (17, 17, 4) with v = 0, the split decomposition changes
   at w1 = 17/2 ± √17/2 — a conjugate pair strictly inside the grid-3
   cell (17/3, 34/3) whose endpoints share a structure.  The scan sees
   equal endpoints and reports nothing there (1 event overall); the
   exact enumeration must report both hidden events (4 overall). *)
let test_exact_sees_hidden_even_events () =
  let g = Generators.ring_of_ints [| 17; 17; 4 |] in
  let v = 0 in
  let lo = Q.make (Bigint.of_int 17) (Bigint.of_int 3) in
  let hi = Q.make (Bigint.of_int 34) (Bigint.of_int 3) in
  (* the cell endpoints really do share a structure *)
  let d_at x =
    let s = Sybil.split_free g ~v ~w1:x ~w2:(Q.sub (Graph.weight g v) x) in
    Decompose.compute s.Sybil.path
  in
  Alcotest.(check bool) "cell endpoints agree" true
    (Decompose.same_structure (d_at lo) (d_at hi));
  (* the grid scan is blind inside that cell *)
  let scan = Breakpoints.scan_split ~ctx:(Engine.Ctx.make ~grid:3 ()) g ~v in
  Alcotest.(check int) "scan reports a single event" 1 (List.length scan);
  List.iter
    (fun (ev : Breakpoints.event) ->
      Alcotest.(check bool) "scan bracket outside the blind cell" true
        (Q.compare ev.hi lo <= 0 || Q.compare ev.lo hi >= 0))
    scan;
  (* the exact path reports both cancelling changes: 17/2 ± √17/2 *)
  let events = Breakpoints.exact_split_events g ~v in
  Alcotest.(check int) "exact reports every event" 4 (List.length events);
  let hidden =
    List.filter
      (fun (e : Breakpoints.exact_event) ->
        Qx.compare_q e.at lo > 0 && Qx.compare_q e.at hi < 0)
      events
  in
  Alcotest.(check int) "both hidden events found" 2 (List.length hidden);
  (* and their locations are the conjugate pair, bit-exactly *)
  let half q = Q.make (Bigint.of_int q) (Bigint.of_int 2) in
  (match hidden with
  | [ a; b ] ->
      Alcotest.(check bool) "left event is 17/2 - sqrt(17)/2" true
        (Qx.compare a.Breakpoints.at
           (Qx.make ~q:(half 17) ~r:(Q.neg (half 1)) ~d:(Bigint.of_int 17))
        = 0);
      Alcotest.(check bool) "right event is 17/2 + sqrt(17)/2" true
        (Qx.compare b.Breakpoints.at
           (Qx.make ~q:(half 17) ~r:(half 1) ~d:(Bigint.of_int 17))
        = 0)
  | _ -> Alcotest.fail "expected exactly two hidden events")

(* Work pin for piece certification: over a seeded battery of rings
   and every splitting vertex, the number of distinct DP comparison
   differences [exact_candidates] records, the number of candidates
   whose roots reach [Qx.roots2], the number of pieces
   [exact_split_pieces] returns, and an MD5 over the printed boundaries
   and samples of every piece.  The counts are exact, so a change to the
   DP's transitions or tie-breaking that alters the recorded family
   fails here without any timing noise; the digest pins the exact
   representation of each boundary ([Qx] keeps a radicand only
   non-square, so one value can print several ways).

   With every distinct candidate rooted, 107,357 candidates reached
   [Qx.roots2] on this battery; the nearest-root selection roots only
   the ones whose bracket reaches a piece bound. *)
let test_dp_work_pin () =
  let families =
    [|
      Weights.Uniform (1, 100);
      Weights.Bimodal (1, 100, 0.3);
      Weights.Powerlaw (1000, 2.0);
    |]
  in
  Obs.set_metrics true;
  let before = Obs.snapshot () in
  let pieces, repr =
    Fun.protect
      ~finally:(fun () -> Obs.set_metrics false)
      (fun () ->
        let total = ref 0 and buf = Buffer.create 65536 in
        for seed = 1 to 30 do
          let g =
            Instances.ring ~seed ~n:(6 + (seed mod 7)) families.(seed mod 3)
          in
          for v = 0 to Graph.n g - 1 do
            let ps = Breakpoints.exact_split_pieces g ~v in
            total := !total + List.length ps;
            List.iter
              (fun (p : Breakpoints.exact_piece) ->
                Printf.bprintf buf "%s %s %s\n" (Qx.to_string p.xlo)
                  (Q.to_string p.sample) (Qx.to_string p.xhi))
              ps
          done
        done;
        (!total, Digest.to_hex (Digest.string (Buffer.contents buf))))
  in
  let d = Obs.diff (Obs.snapshot ()) before in
  let every_candidate_rooted = 107_357 in
  Alcotest.(check int) "recorded DP candidates" 101_262
    (Obs.counter_value d ~subsystem:"breakpoints" "dp_candidates");
  Alcotest.(check int)
    (Printf.sprintf "root extractions (%d with every candidate rooted)"
       every_candidate_rooted)
    6_326
    (Obs.counter_value d ~subsystem:"breakpoints" "root_extractions");
  Alcotest.(check int) "pieces" 1_355 pieces;
  Alcotest.(check string) "piece boundary representation"
    "cb0c6af7731ff95607f67a35f2481949" repr

let () =
  Alcotest.run "breakpoints"
    [
      ( "unit",
        [
          Alcotest.test_case "brackets tight" `Quick test_no_events_on_flat_instance;
          Alcotest.test_case "zero weight" `Quick test_zero_weight_vertex_no_scan;
          Alcotest.test_case "uniform ring event" `Quick test_uniform_ring_has_event;
          Alcotest.test_case "events are real" `Quick test_events_are_real_changes;
          Alcotest.test_case "classification total" `Quick test_classify_merge_or_split;
          Alcotest.test_case "exact path sees hidden even events" `Quick
            test_exact_sees_hidden_even_events;
          Alcotest.test_case "parametric DP work pin" `Quick test_dp_work_pin;
        ] );
      ("properties", continuity_prop :: split_scan_prop :: props);
    ]
