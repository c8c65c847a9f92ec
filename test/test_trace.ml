(* Tests for the Section III.B interval-structure tracer. *)

module Q = Rational

let test_known_instance () =
  (* ring [7;2;9;4;3], agent 0: C, then B after a split, a one-point
     structure at x = 3 where α_v = 1, and a merge. *)
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let t = Trace.compute g ~v:0 in
  Alcotest.(check int) "intervals" 5 (List.length t.Trace.intervals);
  Alcotest.(check int) "transitions" 4 (List.length t.Trace.transitions);
  (match Trace.check_prop12 t with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "exact boundaries"
    [ "2"; "3"; "3"; "9/2" ]
    (List.map (fun (tr : Trace.transition) -> Qx.to_string tr.at)
       t.Trace.transitions);
  Alcotest.(check (list string)) "transition kinds"
    [ "split"; "other"; "other"; "merge" ]
    (List.map
       (fun (tr : Trace.transition) ->
         match tr.kind with
         | `Split -> "split"
         | `Merge -> "merge"
         | `Other -> "other")
       t.Trace.transitions);
  (* the class sequence is C, C, B/C (the point x = 3), B, B *)
  Alcotest.(check (list string)) "classes" [ "C"; "C"; "B/C"; "B"; "B" ]
    (List.map
       (fun (iv : Trace.interval) ->
         Format.asprintf "%a" Classes.pp_cls iv.v_class)
       t.Trace.intervals)

let test_intervals_cover_range () =
  let g = Generators.ring_of_ints [| 5; 3; 8; 2 |] in
  let t = Trace.compute g ~v:1 in
  let first = List.hd t.Trace.intervals in
  let last = List.nth t.Trace.intervals (List.length t.Trace.intervals - 1) in
  Alcotest.(check bool) "starts at 0" true (Qx.compare_q first.Trace.lo Q.zero = 0);
  Alcotest.(check bool) "ends at w" true
    (Qx.compare_q last.Trace.hi (Graph.weight g 1) = 0)

let test_csv_shape () =
  let g = Generators.ring_of_ints [| 5; 3; 8; 2 |] in
  let t = Trace.compute g ~v:0 in
  let csv = Trace.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows"
    (1 + List.length t.Trace.intervals)
    (List.length lines)

let test_structure_constant_inside_interval () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let t = Trace.compute g ~v:0 in
  List.iter
    (fun (iv : Trace.interval) ->
      let probe x = Decompose.compute (Graph.with_weight g 0 x) in
      let probes =
        if Qx.equal iv.lo iv.hi then [ iv.sample ]
        else
          [
            Qx.rational_between iv.lo (Qx.of_q iv.sample);
            iv.sample;
            Qx.rational_between (Qx.of_q iv.sample) iv.hi;
          ]
      in
      List.iter
        (fun x ->
          Alcotest.(check bool) "same structure inside" true
            (Decompose.same_structure iv.structure (probe x)))
        probes)
    t.Trace.intervals

let props =
  [
    Helpers.qtest ~count:15 "prop 11/12 hold on traces"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        match Trace.check_prop12 (Trace.compute g ~v:0) with
        | Ok () -> true
        | Error _ -> false);
    Helpers.qtest ~count:15 "intervals tile [0, w]"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        let t = Trace.compute g ~v:0 in
        let rec tiled = function
          | (a : Trace.interval) :: (b :: _ as rest) ->
              Qx.equal a.hi b.lo && tiled rest
          | [ last ] -> Qx.compare_q last.hi (Graph.weight g 0) = 0
          | [] -> false
        in
        tiled t.Trace.intervals
        && List.length t.Trace.transitions
           = List.length t.Trace.intervals - 1);
  ]

let () =
  Alcotest.run "trace"
    [
      ( "unit",
        [
          Alcotest.test_case "known instance" `Quick test_known_instance;
          Alcotest.test_case "covers range" `Quick test_intervals_cover_range;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
          Alcotest.test_case "constant inside" `Quick test_structure_constant_inside_interval;
        ] );
      ("properties", props);
    ]
