(* Property battery for the exact event-driven split sweep (DESIGN §16).

   The battery pins the exactness contract of [Incentive.best_split_exact]
   against the historical grid sweep on a few hundred seeded instances:

   - dominance: the certified ratio is >= the grid ratio at every
     grid/refine setting (the grid only ever visits a finite candidate
     set, the exact sweep maximises every closed-form piece);
   - Theorem 8: the certified ratio never exceeds 2, and never drops
     below 1 (the honest split belongs to the sweep);
   - brute force on tiny n: no sampled split beats the certified
     optimum, and a rational optimum is reproduced bit-exactly by the
     mechanism;
   - event accounting: every bisection bracket of the test-side scan
     oracle ([Scan_oracle.scan_split]) contains an exact event, and the
     scan never reports more events than the exact enumeration (a grid
     point landing exactly on a rational boundary is matched by a
     degenerate point piece, see the even-event regression in
     test_breakpoints). *)

module Q = Rational

let instance trial =
  (* seeded rings (Sybil splits are ring-only), sizes 3..10, two weight
     families, seeds disjoint from other suites *)
  let n = 3 + (trial mod 8) in
  let seed = 41_000 + trial in
  let family =
    if trial mod 3 = 2 then Weights.Uniform (1, 200)
    else Weights.Uniform (1, 20)
  in
  (Instances.ring ~seed ~n family, trial mod n)

let grid_settings = [ (4, 0); (8, 1); (16, 2); (32, 3) ]

(* -------------------------------------------------------------------- *)
(* 1. Dominance + Theorem 8 over >= 200 instances                        *)
(* -------------------------------------------------------------------- *)

let test_dominance_battery () =
  let checked = ref 0 in
  for trial = 0 to 219 do
    let g, v = instance trial in
    if Q.sign (Graph.weight g v) > 0 then begin
      incr checked;
      let e = Incentive.best_split_exact g ~v in
      (* cheap setting on every instance, the full matrix on a quarter *)
      let settings =
        if trial mod 4 = 0 then grid_settings else [ (8, 1) ]
      in
      List.iter
        (fun (grid, refine) ->
          let a =
            Incentive.best_split ~ctx:(Engine.Ctx.make ~grid ~refine ()) g ~v
          in
          if Qx.compare_q e.Incentive.ratio_exact a.Incentive.ratio < 0 then
            Alcotest.failf
              "exact ratio %s below grid ratio %s (trial %d, grid %d/%d)"
              (Qx.to_string e.Incentive.ratio_exact)
              (Q.to_string a.Incentive.ratio)
              trial grid refine)
        settings;
      if Qx.compare_q e.Incentive.ratio_exact (Q.of_int 2) > 0 then
        Alcotest.failf "Theorem 8 violated: ratio %s (trial %d)"
          (Qx.to_string e.Incentive.ratio_exact)
          trial;
      if Qx.compare_q e.Incentive.ratio_exact Q.one < 0 then
        Alcotest.failf "ratio %s below honest 1 (trial %d)"
          (Qx.to_string e.Incentive.ratio_exact)
          trial;
      (* the rational witness never beats the certified optimum, and its
         mechanism utility is reproduced by the closed form *)
      if
        Qx.compare_q e.Incentive.utility_exact
          e.Incentive.witness.Incentive.utility
        < 0
      then
        Alcotest.failf "witness utility above certified optimum (trial %d)"
          trial
    end
  done;
  Alcotest.(check bool) "battery covers >= 200 instances" true (!checked >= 200)

(* -------------------------------------------------------------------- *)
(* 2. Brute force on tiny n: dense sampling never beats the optimum     *)
(* -------------------------------------------------------------------- *)

let test_brute_force_tiny () =
  for trial = 0 to 23 do
    let n = 3 + (trial mod 2) in
    let seed = 43_000 + trial in
    let g = Instances.ring ~seed ~n (Weights.Uniform (1, 12)) in
    let v = trial mod n in
    let w = Graph.weight g v in
    if Q.sign w > 0 then begin
      let e = Incentive.best_split_exact g ~v in
      (* dense dyadic sampling of [0, w] plus every piece's witness *)
      let samples = ref [ Q.zero; w ] in
      for j = 1 to 255 do
        samples := Q.mul w (Q.make (Bigint.of_int j) (Bigint.of_int 256))
                   :: !samples
      done;
      List.iter
        (fun (p : Breakpoints.exact_piece) ->
          samples := p.Breakpoints.sample :: !samples)
        (Breakpoints.exact_split_pieces g ~v);
      List.iter
        (fun w1 ->
          let u = Sybil.split_utility g ~v ~w1 in
          if Qx.compare_q e.Incentive.utility_exact u < 0 then
            Alcotest.failf
              "sample w1=%s utility %s beats certified optimum %s (trial %d)"
              (Q.to_string w1) (Q.to_string u)
              (Qx.to_string e.Incentive.utility_exact)
              trial)
        !samples;
      (* a rational optimum is exactly attained by the mechanism *)
      if Qx.is_rational e.Incentive.w1_exact then begin
        let u = Sybil.split_utility g ~v ~w1:(Qx.to_q_exn e.Incentive.w1_exact) in
        Alcotest.(check bool) "rational optimum attained" true
          (Qx.compare_q e.Incentive.utility_exact u = 0)
      end
    end
  done

(* -------------------------------------------------------------------- *)
(* 3. Event accounting against the bisection scan                       *)
(* -------------------------------------------------------------------- *)

let test_event_accounting () =
  for trial = 0 to 59 do
    let g, v = instance (1000 + trial) in
    if Q.sign (Graph.weight g v) > 0 then begin
      let events = Breakpoints.events (Breakpoints.exact_split_pieces g ~v) in
      let scan =
        Scan_oracle.scan_split ~grid:(16 + (8 * (trial mod 3))) g ~v
      in
      match Scan_oracle.check_against scan events with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s (trial %d)" m trial
    end
  done

(* -------------------------------------------------------------------- *)
(* 4. Piece geometry: tiling, interior constancy                         *)
(* -------------------------------------------------------------------- *)

let test_piece_tiling () =
  for trial = 0 to 39 do
    let g, v = instance (2000 + trial) in
    let w = Graph.weight g v in
    if Q.sign w > 0 then begin
      let pieces = Breakpoints.exact_split_pieces g ~v in
      (match pieces with
      | [] -> Alcotest.fail "no pieces on positive-weight vertex"
      | first :: _ ->
          Alcotest.(check bool) "starts at 0" true
            (Qx.compare_q first.Breakpoints.xlo Q.zero = 0));
      let rec tile = function
        | (a : Breakpoints.exact_piece) :: (b :: _ as rest) ->
            Alcotest.(check bool) "pieces abut" true (Qx.equal a.xhi b.xlo);
            tile rest
        | [ last ] ->
            Alcotest.(check bool) "ends at w" true
              (Qx.compare_q last.Breakpoints.xhi w = 0)
        | [] -> ()
      in
      tile pieces;
      List.iter
        (fun (p : Breakpoints.exact_piece) ->
          if Qx.compare p.xlo p.xhi < 0 then begin
            let d_at x =
              let s = Sybil.split_free g ~v ~w1:x ~w2:(Q.sub w x) in
              Decompose.compute s.Sybil.path
            in
            let x1 = Qx.rational_between p.xlo (Qx.of_q p.sample) in
            let x2 = Qx.rational_between (Qx.of_q p.sample) p.xhi in
            Alcotest.(check bool) "interior structure constant" true
              (Decompose.same_structure p.structure (d_at x1)
              && Decompose.same_structure p.structure (d_at p.sample)
              && Decompose.same_structure p.structure (d_at x2))
          end)
        pieces
    end
  done

(* -------------------------------------------------------------------- *)
(* 5. Exact counters tick, and the exact sweep beats the grid's         *)
(*    evaluation count on the same instance                              *)
(* -------------------------------------------------------------------- *)

let test_counters_tick () =
  let g = Instances.ring ~seed:77 ~n:8 (Weights.Uniform (1, 100)) in
  let ctx = Engine.Ctx.make ~sweep:Engine.Exact () in
  Obs.set_metrics true;
  let before = Obs.snapshot () in
  let e =
    Fun.protect
      (fun () -> Incentive.best_split_exact ~ctx g ~v:0)
      ~finally:(fun () -> Obs.set_metrics false)
  in
  let d = Obs.diff (Obs.snapshot ()) before in
  let counter name = Obs.counter_value d ~subsystem:"incentive" name in
  Alcotest.(check int) "one exact call" 1 (counter "exact_sweep_calls");
  Alcotest.(check int) "pieces counted" e.Incentive.pieces
    (counter "exact_pieces");
  Alcotest.(check int) "events counted" e.Incentive.events
    (counter "exact_events");
  Alcotest.(check bool) "evaluations ticked" true (counter "exact_evals" > 0)

(* -------------------------------------------------------------------- *)
(* 6. Work pin: best_attack_exact over a seeded n = 10 ring battery      *)
(* -------------------------------------------------------------------- *)

(* The perfbench exact-sweep requests in miniature: n = 10 rings under
   the benchmark's three weight distributions.  Exact counts, so a
   change that alters how many splits are evaluated, how many pieces
   the sweep certifies or how often the chain driver leaves its int DP
   fails here without timing noise.  The witness splits j/2^40 are what
   send components to the driver's scaled-Bigint fallback; the sweep's
   own samples are small dyadics, so every stage replay runs on native
   ints. *)
let pin_dists =
  Weights.[| Bimodal (1, 100, 0.3); Uniform (1, 100); Powerlaw (1000, 2.0) |]

let pin_ring seed = Instances.ring ~seed ~n:10 pin_dists.(seed mod 3)

let test_attack_work_pin () =
  let ctx = Engine.Ctx.make ~sweep:Engine.Exact () in
  Obs.set_metrics true;
  let before = Obs.snapshot () in
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      for seed = 1 to 30 do
        ignore (Incentive.best_attack_exact ~ctx (pin_ring seed))
      done);
  let d = Obs.diff (Obs.snapshot ()) before in
  let count subsystem name = Obs.counter_value d ~subsystem name in
  Alcotest.(check int) "fallback solves" 360
    (count "decomposition" "chain_driver_q_fallback_solves");
  Alcotest.(check int) "exact pieces" 1_647 (count "incentive" "exact_pieces");
  Alcotest.(check int) "exact evaluations" 3_839
    (count "incentive" "exact_evals");
  Alcotest.(check int) "chain oracle calls" 43_617
    (count "decomposition" "fastchain_oracle_calls");
  Alcotest.(check (pair int int)) "(native-int, Bigint) stage replays"
    (3_093, 0)
    (count "breakpoints" "int_replays", count "breakpoints" "bigint_replays")

(* -------------------------------------------------------------------- *)
(* 7. Domain safety of the per-sweep replay scratch                      *)
(* -------------------------------------------------------------------- *)

(* Each sweep owns its native-int replay scratch, so the per-vertex
   sweeps of best_attack_exact may run on two domains at once: every
   exact field of the work-pin battery must match the one-domain run. *)
let test_attack_domains () =
  let exact domains seed =
    let ctx = Engine.Ctx.make ~sweep:Engine.Exact ~domains () in
    let e = Incentive.best_attack_exact ~ctx (pin_ring seed) in
    Printf.sprintf "v %d w1 %s u %s ratio %s pieces %d events %d"
      e.Incentive.witness.Incentive.v
      (Qx.to_string e.Incentive.w1_exact)
      (Qx.to_string e.Incentive.utility_exact)
      (Qx.to_string e.Incentive.ratio_exact)
      e.Incentive.pieces e.Incentive.events
  in
  for seed = 1 to 30 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d: domains 2 = domains 1" seed)
      (exact 1 seed) (exact 2 seed)
  done

let () =
  Alcotest.run "exact_sweep"
    [
      ( "battery",
        [
          Alcotest.test_case "dominance over grid (>=200 instances)" `Quick
            test_dominance_battery;
          Alcotest.test_case "brute force on tiny n" `Quick
            test_brute_force_tiny;
          Alcotest.test_case "event accounting vs scan_split" `Quick
            test_event_accounting;
          Alcotest.test_case "piece tiling and constancy" `Quick
            test_piece_tiling;
          Alcotest.test_case "exact counters tick" `Quick test_counters_tick;
          Alcotest.test_case "best_attack_exact work pin" `Quick
            test_attack_work_pin;
          Alcotest.test_case "best_attack_exact at domains 2" `Quick
            test_attack_domains;
        ] );
    ]
