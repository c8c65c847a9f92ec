(* Tests for the linear-time chain solver: exact agreement with an
   exhaustive subset enumeration on paths, cycles, masks and degenerate
   weights. *)

module Q = Rational

let q = Q.of_ints

let agree_h g mask alpha =
  let h1, s1 = Chain_oracle.brute_h_and_argmax g ~mask ~alpha in
  let h2, s2 = Chain_fast.h_and_argmax g ~mask ~alpha in
  Q.equal h1 h2 && Vset.equal s1 s2

let test_single_vertex () =
  let g = Graph.of_int_weights ~weights:[| 5 |] ~edges:[] in
  let mask = Graph.full_mask g in
  Alcotest.(check bool) "alpha=1/2" true (agree_h g mask Q.half);
  Alcotest.(check bool) "alpha=0" true (agree_h g mask Q.zero);
  Helpers.check_vset "isolated vertex is its own bottleneck"
    (Vset.singleton 0)
    (Chain_fast.maximal_bottleneck g ~mask)

let test_two_vertices () =
  let g = Generators.path_of_ints [| 1; 4 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; q 1 4; Q.half; Q.one; Q.two; q 7 3 ]

let test_triangle_cycle () =
  let g = Generators.ring_of_ints [| 2; 3; 5 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; q 1 3; Q.half; Q.one; q 3 2 ]

let test_masked_ring_becomes_paths () =
  let g = Generators.ring_of_ints [| 1; 2; 3; 4; 5; 6 |] in
  (* removing vertices 1 and 4 leaves two 2-paths *)
  let mask = Vset.of_list [ 0; 2; 3; 5 ] in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ q 1 5; Q.half; Q.one ]

let test_zero_weights () =
  let g = Generators.path_of_ints [| 0; 5; 0; 5 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; Q.half; Q.one ]

let test_rejects_high_degree () =
  let g = Generators.star (Array.make 4 Q.one) in
  Alcotest.check_raises "star"
    (Invalid_argument "Chain_fast: masked graph has a vertex of degree > 2")
    (fun () ->
      ignore (Chain_fast.h_and_argmax g ~mask:(Graph.full_mask g) ~alpha:Q.one))

(* Weights a_v / p_v over distinct primes just above 10^6: the common
   denominator of any two of them exceeds the decomposition driver's
   2^29 integer scale, so every component of two or more vertices is
   solved by the exact-rational fallback on the DP kernel (only isolated
   fragments still scale).  That is the one route by which
   Decompose.compute reaches the kernel's cycle branch. *)
let fallback_primes =
  [| 1000003; 1000033; 1000037; 1000039; 1000081; 1000099; 1000117;
     1000121; 1000133; 1000151; 1000159; 1000171 |]

let test_rational_fallback () =
  let rng = Prng.create 2024 in
  let instances = ref 0 in
  Obs.set_metrics true;
  let before = Obs.snapshot () in
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      for n = 3 to 12 do
        List.iter
          (fun ring ->
            let ws =
              Array.init n (fun i ->
                  q (1 + Prng.int rng 1000) fallback_primes.(i))
            in
            let g = if ring then Generators.ring ws else Generators.path ws in
            let dec solver =
              Decompose.compute ~ctx:(Engine.Ctx.make ~solver ()) g
            in
            let fast = dec Decompose.FastChain in
            incr instances;
            Alcotest.(check bool)
              (Printf.sprintf "%s n=%d: fast-chain = flow = brute"
                 (if ring then "ring" else "path") n)
              true
              (Decompose.equal fast (dec Decompose.Flow)
              && Decompose.equal fast (dec Decompose.Brute)))
          [ true; false ]
      done);
  let d = Obs.diff (Obs.snapshot ()) before in
  (* at least the first solve of every instance is a whole ring or path *)
  Alcotest.(check bool) "the rational fallback ran" true
    (Obs.counter_value d ~subsystem:"decomposition"
       "chain_driver_q_fallback_solves"
    >= !instances)

(* The witness shape: best_split_exact evaluates the mechanism at
   dyadic splits w1 = j/2^40 when the certified optimum is irrational.
   The split path then mixes a 2^-40 weight with integers, which is
   past the driver's 2^29 integer scale, so the identities' component is
   solved by the scaled-Bigint fallback. *)
let test_witness_split_paths () =
  let rng = Prng.create 40 in
  let denom = 1 lsl 40 in
  let dists =
    Weights.[| Bimodal (1, 100, 0.3); Uniform (1, 100); Powerlaw (1000, 2.0) |]
  in
  let instances = ref 0 in
  Obs.set_metrics true;
  let before = Obs.snapshot () in
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      for trial = 0 to 35 do
        let n = 3 + (trial mod 7) in
        let g = Instances.ring ~seed:(500 + trial) ~n dists.(trial mod 3) in
        let v = Prng.int rng n in
        let wv = Graph.weight g v in
        (* integer w_v: odd j puts j/2^40 strictly inside (0, w_v) and
           never on a coarser dyadic *)
        let top = Bigint.to_int_exn (Q.num wv) * denom / 2 in
        let j = (2 * Prng.int rng top) + 1 in
        let w1 = Q.of_ints j denom in
        let s = Sybil.split g ~v ~w1 ~w2:(Q.sub wv w1) in
        let dec solver =
          Decompose.compute ~ctx:(Engine.Ctx.make ~solver ()) s.Sybil.path
        in
        let fast = dec Decompose.FastChain in
        incr instances;
        Alcotest.(check bool)
          (Printf.sprintf "n=%d v=%d w1=%s: fast-chain = flow = brute" n v
             (Q.to_string w1))
          true
          (Decompose.equal fast (dec Decompose.Flow)
          && Decompose.equal fast (dec Decompose.Brute))
      done);
  let d = Obs.diff (Obs.snapshot ()) before in
  Alcotest.(check bool) "the fallback ran on every split path" true
    (Obs.counter_value d ~subsystem:"decomposition"
       "chain_driver_q_fallback_solves"
    >= !instances)

(* Big denominators straight into the oracle: weights mixing a/2^40,
   a/p for primes p just above 10^6 and integers, so the kernel's common
   scale D reaches 2^40·p·p', and α ≤ 3 has a denominator up to 10^15,
   so the scaled costs q·W_i run far past native ints.  Full masks on
   rings give cycles. *)
let big_instance_gen =
  QCheck2.Gen.(
    int_range 1 9 >>= fun n ->
    bool >>= fun want_ring ->
    list_size (return n)
      (int_range 0 2 >>= fun kind ->
       int_range 0 (1 lsl 45) >>= fun a ->
       int_range 0 (Array.length fallback_primes - 1) >>= fun pi ->
       return
         (match kind with
         | 0 -> Q.of_int (a mod 10)
         | 1 -> Q.of_ints a (1 lsl 40)
         | _ -> Q.of_ints (a mod 10_000_000) fallback_primes.(pi)))
    >>= fun ws ->
    int_range 1 1_000_000_000_000_000 >>= fun aden ->
    int_range 0 3 >>= fun ascale ->
    int_range 0 1_000_000_000_000_000 >>= fun anum ->
    bool >>= fun full ->
    int >>= fun mask_seed ->
    let ws = Array.of_list ws in
    if Array.for_all Q.is_zero ws then ws.(0) <- Q.one;
    let g =
      if want_ring && n >= 3 then Generators.ring ws
      else if n >= 2 then Generators.path ws
      else Graph.create ~weights:ws ~edges:[]
    in
    let mask =
      if full then Graph.full_mask g
      else begin
        let rng = Prng.create mask_seed in
        let m = ref Vset.empty in
        for v = 0 to n - 1 do
          if Prng.int rng 4 > 0 then m := Vset.add v !m
        done;
        if Vset.is_empty !m then Vset.singleton 0 else !m
      end
    in
    (* α up to ~3, with a large numerator and denominator *)
    let alpha = Q.of_ints (anum mod ((ascale * aden) + 1)) aden in
    return (g, mask, alpha))

(* Property: exact agreement on random rings/paths, random alphas, random
   masks. *)
let instance_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    bool >>= fun want_ring ->
    list_size (return n) (int_range 0 9) >>= fun ws ->
    int_range 0 30 >>= fun anum ->
    int_range 1 10 >>= fun aden ->
    int >>= fun mask_seed ->
    let ws = Array.of_list ws in
    if Array.for_all (fun w -> w = 0) ws then ws.(0) <- 1;
    let g =
      if want_ring && n >= 3 then Generators.ring_of_ints ws
      else if n >= 2 then Generators.path_of_ints ws
      else Graph.of_int_weights ~weights:ws ~edges:[]
    in
    let rng = Prng.create mask_seed in
    let mask = ref Vset.empty in
    for v = 0 to n - 1 do
      if Prng.int rng 4 > 0 then mask := Vset.add v !mask
    done;
    if Vset.is_empty !mask then mask := Vset.singleton 0;
    return (g, !mask, Rational.of_ints anum aden))

let props =
  [
    Helpers.qtest ~count:400 "h_and_argmax agrees with exhaustive oracle"
      instance_gen (fun (g, mask, alpha) -> agree_h g mask alpha);
    Helpers.qtest ~count:250
      "h_and_argmax agrees with exhaustive oracle on big denominators"
      big_instance_gen (fun (g, mask, alpha) -> agree_h g mask alpha);
    Helpers.qtest ~count:150 "full decomposition agrees" (Helpers.ring_gen ())
      (fun g ->
        Decompose.equal
          (Decompose.compute ~ctx:(Engine.Ctx.make ~solver:Decompose.Brute ()) g)
          (Decompose.compute ~ctx:(Engine.Ctx.make ~solver:Decompose.FastChain ()) g));
  ]

let () =
  Alcotest.run "chain_fast"
    [
      ( "unit",
        [
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "two vertices" `Quick test_two_vertices;
          Alcotest.test_case "triangle" `Quick test_triangle_cycle;
          Alcotest.test_case "masked ring" `Quick test_masked_ring_becomes_paths;
          Alcotest.test_case "zero weights" `Quick test_zero_weights;
          Alcotest.test_case "degree check" `Quick test_rejects_high_degree;
          Alcotest.test_case "rational fallback via compute" `Quick
            test_rational_fallback;
          Alcotest.test_case "witness-shaped split paths" `Quick
            test_witness_split_paths;
        ] );
      ("properties", props);
    ]
