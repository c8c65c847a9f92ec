(* Tests for the exact enumeration of decomposition breakpoints
   (Proposition 12 support, DESIGN §16), over both weight parameters:
   [v]'s reported weight ([Breakpoints.exact_pieces]) and the Sybil
   split weight ([Breakpoints.exact_split_pieces]).  The grid-and-
   bisection scan of [Scan_oracle] is the independent reference. *)

module Q = Rational

let decomp_at g ~v x = Decompose.compute (Graph.with_weight g v x)

let test_path_pieces_tile () =
  (* a two-vertex path: v's pair changes as x crosses the partner's
     share, and the pieces tile [0, w] in order *)
  let g = Generators.path_of_ints [| 4; 100 |] in
  let pieces = Breakpoints.exact_pieces g ~v:0 in
  Alcotest.(check bool) "starts at 0" true
    (Qx.compare_q (List.hd pieces).Breakpoints.xlo Q.zero = 0);
  let rec tiled = function
    | (a : Breakpoints.exact_piece) :: (b :: _ as rest) ->
        Qx.equal a.xhi b.xlo && tiled rest
    | [ last ] -> Qx.compare_q last.xhi (Graph.weight g 0) = 0
    | [] -> false
  in
  Alcotest.(check bool) "tiled" true (tiled pieces)

let test_zero_weight_vertex_no_pieces () =
  let g =
    Graph.of_int_weights ~weights:[| 0; 5; 5 |] ~edges:[ (0, 1); (1, 2) ]
  in
  Alcotest.(check int) "no range to enumerate" 0
    (List.length (Breakpoints.exact_pieces g ~v:0))

let test_uniform_ring_has_event () =
  (* Uniform even ring: at x = w_v everything is one alpha = 1 pair, at
     small x the decomposition differs -> at least one event. *)
  let g = Generators.ring_of_ints [| 5; 5; 5; 5 |] in
  let events = Breakpoints.events (Breakpoints.exact_pieces g ~v:0) in
  Alcotest.(check bool) "at least one event" true (List.length events >= 1);
  let rec ordered = function
    | (a : Breakpoints.exact_event) :: (b :: _ as rest) ->
        Qx.compare a.at b.at <= 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered events)

let test_classify_merge_or_split () =
  let g = Generators.ring_of_ints [| 5; 5; 5; 5 |] in
  let events = Breakpoints.events (Breakpoints.exact_pieces g ~v:0) in
  Alcotest.(check bool) "classifiable" true
    (List.for_all
       (fun ev ->
         match Breakpoints.classify_event ev ~v:0 with
         | `Merge | `Split | `Other -> true)
       events)

let test_rejects_degree_three () =
  Alcotest.check_raises "vertex of degree > 2"
    (Invalid_argument
       "Breakpoints.exact_pieces: a vertex has degree > 2 (the exact piece \
        enumeration runs on rings and paths)")
    (fun () -> ignore (Breakpoints.exact_pieces (Generators.fig1 ()) ~v:0))

(* Every piece's structure is the decomposition at its sample and at
   rational probes on either side of it inside the piece; a point
   piece's at its point. *)
let check_probes ~label decomp_at pieces =
  List.iter
    (fun (p : Breakpoints.exact_piece) ->
      let probes =
        if Qx.equal p.xlo p.xhi then [ p.sample ]
        else
          [
            Qx.rational_between p.xlo (Qx.of_q p.sample);
            p.sample;
            Qx.rational_between (Qx.of_q p.sample) p.xhi;
          ]
      in
      List.iter
        (fun x ->
          if not (Decompose.same_structure p.structure (decomp_at x)) then
            Alcotest.failf "%s: structure of piece [%s, %s] differs at %s"
              label (Qx.to_string p.xlo) (Qx.to_string p.xhi) (Q.to_string x))
        probes)
    pieces

let check_tiling ~label ~w pieces =
  let rec go = function
    | (a : Breakpoints.exact_piece) :: (b :: _ as rest) ->
        if not (Qx.equal a.xhi b.xlo) then
          Alcotest.failf "%s: pieces do not abut at %s" label
            (Qx.to_string a.xhi);
        go rest
    | [ last ] ->
        if Qx.compare_q last.xhi w <> 0 then
          Alcotest.failf "%s: last piece ends at %s" label
            (Qx.to_string last.xhi)
    | [] -> Alcotest.failf "%s: no pieces" label
  in
  (match pieces with
  | (first : Breakpoints.exact_piece) :: _
    when Qx.compare_q first.xlo Q.zero <> 0 ->
      Alcotest.failf "%s: first piece starts at %s" label
        (Qx.to_string first.xlo)
  | _ -> ());
  go pieces

(* The reported-weight battery: 120 seeded rings and paths, n = 3..10.
   The pieces tile [0, w_v], every piece's structure is the
   decomposition at rational probes inside it, and the grid-32 scan
   oracle under-counts only: each of its brackets holds an exact event,
   and it never reports more events than the exact enumeration. *)
let test_reported_weight_battery () =
  let exact = ref 0 and scanned = ref 0 in
  for trial = 0 to 119 do
    let n = 3 + (trial mod 8) in
    let seed = 52_000 + trial in
    let family =
      if trial mod 2 = 0 then Weights.Uniform (1, 20)
      else Weights.Uniform (1, 200)
    in
    let g =
      if trial mod 3 = 2 then Instances.path ~seed ~n family
      else Instances.ring ~seed ~n family
    in
    let v = trial mod n in
    let w = Graph.weight g v in
    let label = Printf.sprintf "trial %d, v = %d" trial v in
    let pieces = Breakpoints.exact_pieces g ~v in
    check_tiling ~label ~w pieces;
    check_probes ~label (decomp_at g ~v) pieces;
    let events = Breakpoints.events pieces in
    let scan = Scan_oracle.scan ~grid:32 g ~v in
    (match Scan_oracle.check_against scan events with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" label m);
    exact := !exact + List.length events;
    scanned := !scanned + List.length scan
  done;
  Alcotest.(check bool) "the scan sees no more than the exact events" true
    (!scanned <= !exact)

(* The reported weight's structure never recurs (Propositions 11 and
   12), so unlike the split parameter below a scan cell cannot hide a
   cancelling pair of changes; what it cannot see is a one-point
   structure.  On the ring (7, 2, 9, 4, 3) with v = 0, at x = 3 exactly
   α_v = 1 and {0, 4} is a pair of its own (class B/C), with v in C
   below and in B above.  The grid-32 scan brackets one change around
   x = 3, from the C-side structure straight to the B-side one; the
   exact enumeration reports both events there, around a point piece. *)
let test_exact_sees_point_structure () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let v = 0 in
  let three = Q.of_int 3 in
  let pieces = Breakpoints.exact_pieces g ~v in
  let events = Breakpoints.events pieces in
  Alcotest.(check (list string)) "exact event locations"
    [ "2"; "3"; "3"; "9/2" ]
    (List.map (fun (e : Breakpoints.exact_event) -> Qx.to_string e.at) events);
  let point =
    List.find
      (fun (p : Breakpoints.exact_piece) ->
        Qx.equal p.xlo p.xhi && Qx.compare_q p.xlo three = 0)
      pieces
  in
  Alcotest.(check bool) "the point structure is the x = 3 decomposition" true
    (Decompose.same_structure point.structure (decomp_at g ~v three));
  Helpers.check_q "alpha_v = 1 at the point" Q.one
    (Decompose.alpha_of point.structure v);
  let scan = Scan_oracle.scan ~grid:32 g ~v in
  Alcotest.(check int) "the scan reports three events" 3 (List.length scan);
  let around =
    List.filter
      (fun (ev : Scan_oracle.event) ->
        Q.compare ev.lo three < 0 && Q.compare three ev.hi < 0)
      scan
  in
  match around with
  | [ ev ] ->
      Alcotest.(check bool) "its bracket skips the point structure" true
        ((not (Decompose.same_structure ev.before point.structure))
        && not (Decompose.same_structure ev.after point.structure))
  | _ -> Alcotest.fail "expected one scan bracket around x = 3"

let props =
  [
    Helpers.qtest ~count:20 "Proposition 12: class stable across pieces"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        match Theorems.proposition12 g ~v:0 with
        | Ok () -> true
        | Error _ -> false);
    (* Theorem 10 also gives continuity of U_v(x): across every exact
       boundary the utility moves by little between rational points
       within w·2⁻²⁰ on either side (a point piece contributes its own
       point) *)
    Helpers.qtest ~count:12 "utility continuous across breakpoints"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        let v = 0 in
        let eps = Q.div_int (Graph.weight g v) (1 lsl 20) in
        let u x = (Misreport.at g ~v ~x).Misreport.utility in
        let range = Q.to_float (Sybil.honest_utility g ~v) +. 1.0 in
        let point (p : Breakpoints.exact_piece) = Qx.equal p.xlo p.xhi in
        let rec across = function
          | (a : Breakpoints.exact_piece) :: (b :: _ as rest) ->
              let t = a.xhi in
              let xl =
                if point a then a.sample
                else Qx.rational_between (Qx.max a.xlo (Qx.add_q t (Q.neg eps))) t
              and xr =
                if point b then b.sample
                else Qx.rational_between t (Qx.min b.xhi (Qx.add_q t eps))
              in
              Q.to_float (Q.abs (Q.sub (u xr) (u xl))) < 0.01 *. range
              && across rest
          | _ -> true
        in
        across (Breakpoints.exact_pieces g ~v));
    Helpers.qtest ~count:10 "split scan brackets hold exact events"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        let v = 0 in
        Result.is_ok
          (Scan_oracle.check_against
             (Scan_oracle.scan_split ~grid:12 g ~v)
             (Breakpoints.events (Breakpoints.exact_split_pieces g ~v))));
  ]

(* Regression for the even-event blindness of the grid scan on the split
   parameter: on the ring (17, 17, 4) with v = 0, the split
   decomposition changes at w1 = 17/2 ± √17/2 — a conjugate pair
   strictly inside the grid-3 cell (17/3, 34/3) whose endpoints share a
   structure.  The scan sees equal endpoints and reports nothing there
   (1 event overall); the exact enumeration must report both hidden
   events (4 overall). *)
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
  let scan = Scan_oracle.scan_split ~grid:3 g ~v in
  Alcotest.(check int) "scan reports a single event" 1 (List.length scan);
  List.iter
    (fun (ev : Scan_oracle.event) ->
      Alcotest.(check bool) "scan bracket outside the blind cell" true
        (Q.compare ev.hi lo <= 0 || Q.compare ev.lo hi >= 0))
    scan;
  (* the exact path reports both cancelling changes: 17/2 ± √17/2 *)
  let events = Breakpoints.events (Breakpoints.exact_split_pieces g ~v) in
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
  match hidden with
  | [ a; b ] ->
      Alcotest.(check bool) "left event is 17/2 - sqrt(17)/2" true
        (Qx.compare a.Breakpoints.at
           (Qx.make ~q:(half 17) ~r:(Q.neg (half 1)) ~d:(Bigint.of_int 17))
        = 0);
      Alcotest.(check bool) "right event is 17/2 + sqrt(17)/2" true
        (Qx.compare b.Breakpoints.at
           (Qx.make ~q:(half 17) ~r:(half 1) ~d:(Bigint.of_int 17))
        = 0)
  | _ -> Alcotest.fail "expected exactly two hidden events"

(* Work pin for piece certification: over a seeded battery of rings
   and every splitting vertex, the number of distinct DP comparison
   differences [exact_candidates] records, the number of candidates
   whose roots reach [Qx.roots2], the number of pieces
   [exact_split_pieces] returns, and an MD5 over the printed boundaries
   and samples of every piece.  The counts are exact, so a change to the
   DP's transitions or tie-breaking that alters the recorded family
   fails here without any timing noise; the digest pins the exact
   representation of each boundary ([Qx] keeps a radicand only
   non-square, so one value can print several ways).  It also pins how
   many samples the stage replay ran on native ints and on Bigint: on
   these integer rings every sample fits the native-int bound.

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
  Alcotest.(check (pair int int)) "(native-int, Bigint) stage replays"
    (2_718, 0)
    ( Obs.counter_value d ~subsystem:"breakpoints" "int_replays",
      Obs.counter_value d ~subsystem:"breakpoints" "bigint_replays" );
  Alcotest.(check int) "pieces" 1_355 pieces;
  Alcotest.(check string) "piece boundary representation"
    "cb0c6af7731ff95607f67a35f2481949" repr

(* The stage replay runs on native ints when a sample's scaled bound
   T = D·(Σ fixed weights + total) is at most the replay's bound, and on
   Bigint otherwise (DESIGN §16, "Native-int replay").  Both instances
   must certify the same sorted candidate family at every piece's
   sample, and the same pieces, for both weight parameters — the split
   weight at every vertex, and the reported weight, whose replay runs
   the cycle DP on the ring itself, at one vertex a ring — over 200
   rings: the perfbench weight distributions
   at n = 4..12, weights a/2^40 and a/p for primes p > 10^6, and integer
   rings whose weight sum is the bound or the bound + 1.  On those last
   rings an integral sample puts T exactly at the bound or one past it,
   and a half-integral one at twice the bound, where a bound one bit too
   loose lets the native-int replay overflow.  On the reported weight T
   is the ring's whole weight sum at every sample, so a sample below
   w_v whose own weight sum fits the bound still replays on Bigint when
   T does not. *)
let test_int_replay_matches_bigint () =
  let module B = Bigint in
  let bound = Breakpoints.For_testing.int_replay_bound in
  let rng = Prng.create 22 in
  let dists =
    Weights.[| Bimodal (1, 100, 0.3); Uniform (1, 100); Powerlaw (1000, 2.0) |]
  in
  let primes = [| 1_000_003; 1_000_033; 1_000_037; 1_000_039; 1_000_081 |] in
  let over den n =
    Array.init n (fun _ -> Q.make (B.of_int (Prng.int_in rng 1 100)) den)
  in
  (* [n] positive integer weights summing to [sum]: one heavy vertex
     and small ones, or an even random split *)
  let summing sum n ~heavy =
    let ws =
      Array.init (n - 1) (fun _ ->
          if heavy then Prng.int_in rng 1 100
          else Prng.int_in rng 1 (sum / n))
    in
    let rest = sum - Array.fold_left ( + ) 0 ws in
    let ws = Array.append ws [| rest |] in
    Prng.shuffle rng ws;
    Array.map Q.of_int ws
  in
  let rings =
    List.init 150 (fun i ->
        Instances.ring ~seed:(i + 1) ~n:(4 + (i mod 9)) dists.(i mod 3))
    @ List.init 15 (fun i ->
          Graph.ring ~weights:(over (B.pow B.two 40) (4 + (i mod 5))))
    @ List.init 15 (fun i ->
          let n = 4 + (i mod 5) in
          if i < 10 then
            Graph.ring ~weights:(over (B.of_int primes.(i mod 5)) n)
          else
            Graph.ring
              ~weights:
                (Array.init n (fun u ->
                     Q.of_ints (Prng.int_in rng 1 100) primes.(u mod 5))))
    @ List.init 20 (fun i ->
          Graph.ring
            ~weights:
              (summing (bound + (i mod 2)) (4 + (i mod 5)) ~heavy:(i < 10)))
  in
  let sorted cands =
    List.sort compare
      (List.map
         (fun (a, b, c) -> (B.to_string a, B.to_string b, B.to_string c))
         cands)
  in
  let pieces ps =
    List.map
      (fun (p : Breakpoints.exact_piece) ->
        Printf.sprintf "%s %s %s %s" (Qx.to_string p.xlo) (Qx.to_string p.xhi)
          (Q.to_string p.sample)
          (Format.asprintf "%a" Decompose.pp p.structure))
      ps
  in
  (* [f ()] with the replays it ran on each instance *)
  let replays f =
    let before = Obs.snapshot () in
    let r = f () in
    let d = Obs.diff (Obs.snapshot ()) before in
    let count name = Obs.counter_value d ~subsystem:"breakpoints" name in
    (r, count "int_replays", count "bigint_replays")
  in
  let params =
    [
      (`Split, "split", Breakpoints.exact_split_pieces ?ctx:None);
      (`Weight, "reported weight", Breakpoints.exact_pieces ?ctx:None);
    ]
  in
  let ints = ref 0 and bigs = ref 0 in
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      List.iteri
        (fun i g ->
          for v = 0 to Graph.n g - 1 do
            (* the split at every vertex; the reported weight, whose
               first stage replays the whole ring, at one vertex a ring *)
            let params =
              if v = i mod Graph.n g then params else [ List.hd params ]
            in
            List.iter
              (fun (which, name, enumerate) ->
                let label = Printf.sprintf "ring %d, v = %d, %s" i v name in
                let ps, ni, nb = replays (fun () -> enumerate g ~v) in
                ints := !ints + ni;
                bigs := !bigs + nb;
                Alcotest.(check (list string))
                  (label ^ ": pieces")
                  (pieces (Breakpoints.For_testing.pieces_bigint which g ~v))
                  (pieces ps);
                List.iter
                  (fun (p : Breakpoints.exact_piece) ->
                    let family bigint =
                      sorted
                        (Breakpoints.For_testing.candidates ~bigint which g ~v
                           ~p:p.sample)
                    in
                    Alcotest.(check (list (triple string string string)))
                      (Printf.sprintf "%s: family at %s" label
                         (Q.to_string p.sample))
                      (family true) (family false))
                  ps)
              params
          done)
        rings;
      Alcotest.(check bool) "unforced sweeps ran both instances" true
        (!ints > 0 && !bigs > 0);
      (* the guard itself: at an integral sample of an integer ring, T is
         the weight sum, on both parameters *)
      List.iter
        (fun ((which, name, _), (sum, expect_int)) ->
          let g = Graph.ring ~weights:(summing sum 5 ~heavy:true) in
          let v = ref 0 in
          for u = 1 to 4 do
            if Q.compare (Graph.weight g u) (Graph.weight g !v) > 0 then v := u
          done;
          let _, ni, nb =
            replays (fun () ->
                Breakpoints.For_testing.candidates ~bigint:false which g
                  ~v:!v ~p:Q.one)
          in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s, T = bound + %d: (int, Bigint) replays" name
               (sum - bound))
            (if expect_int then (1, 0) else (0, 1))
            (ni, nb))
        (List.concat_map
           (fun param -> [ (param, (bound, true)); (param, (bound + 1, false)) ])
           params))

let () =
  Alcotest.run "breakpoints"
    [
      ( "unit",
        [
          Alcotest.test_case "path pieces tile" `Quick test_path_pieces_tile;
          Alcotest.test_case "zero weight" `Quick
            test_zero_weight_vertex_no_pieces;
          Alcotest.test_case "uniform ring event" `Quick
            test_uniform_ring_has_event;
          Alcotest.test_case "classification total" `Quick
            test_classify_merge_or_split;
          Alcotest.test_case "degree > 2 rejected" `Quick
            test_rejects_degree_three;
          Alcotest.test_case "reported-weight battery" `Quick
            test_reported_weight_battery;
          Alcotest.test_case "exact path sees a one-point structure" `Quick
            test_exact_sees_point_structure;
          Alcotest.test_case "exact path sees hidden even events" `Quick
            test_exact_sees_hidden_even_events;
          Alcotest.test_case "parametric DP work pin" `Quick test_dp_work_pin;
          Alcotest.test_case "native-int replay = Bigint replay" `Quick
            test_int_replay_matches_bigint;
        ] );
      ("properties", props);
    ]
