(* Differential battery across the decomposition solvers.

   Every random instance is decomposed by each applicable solver; the
   decompositions must be *identical* (same pairs, same alphas — not
   merely equivalent), pass Proposition 3 validation, and carry a
   flow-witness certificate that Certificate.verify accepts.  All
   generators run under the fixed qtest seed, so a failure here is
   reproducible and the printed counterexample is the whole story. *)

let all_solvers =
  [
    ("fast-chain", Decompose.FastChain);
    ("flow", Decompose.Flow);
    ("brute", Decompose.Brute);
    ("auto", Decompose.Auto);
  ]

(* The chain DP requires max degree <= 2; general graphs get the
   degree-agnostic subset. *)
let general_solvers =
  [ ("flow", Decompose.Flow); ("brute", Decompose.Brute);
    ("auto", Decompose.Auto) ]

let pp_result fmt = function
  | Ok () -> Format.pp_print_string fmt "Ok"
  | Error m -> Format.fprintf fmt "Error %S" m

let same_result r1 r2 =
  match (r1, r2) with
  | Ok (), Ok () -> true
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

(* Decompose.validate against the quadratic oracle: the same verdict and,
   on a violation, the same message. *)
let check_oracle g d =
  let fast = Decompose.validate g d
  and slow = Validate_oracle.validate_quadratic g d in
  if not (same_result fast slow) then
    QCheck2.Test.fail_reportf
      "validate disagrees with the quadratic oracle on@.%a@.%a@.validate: \
       %a@.oracle: %a"
      Graph.pp g Decompose.pp d pp_result fast pp_result slow

(* The list scan the indexed lookups replaced, kept as their reference. *)
let scan_index (d : Decompose.t) v =
  let rec go i = function
    | [] -> None
    | (p : Decompose.pair) :: rest ->
        if Vset.mem v p.b || Vset.mem v p.c then Some i else go (i + 1) rest
  in
  go 0 d

let lookup_or_none f = try Some (f ()) with Not_found -> None

let opt_eq eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

(* Every lookup for every v in [-1, n] equals the scan's answer; a vertex
   in no pair (here v = -1 and v = n) raises Not_found from all five. *)
let lookups_agree g (d : Decompose.t) =
  let n = Graph.n g in
  let rec go v =
    v > n
    ||
    let want = scan_index d v in
    let pair = Option.map (List.nth d) want in
    opt_eq Int.equal want (lookup_or_none (fun () -> Decompose.pair_index d v))
    && opt_eq ( == ) pair (lookup_or_none (fun () -> Decompose.pair_of d v))
    && opt_eq Rational.equal
         (Option.map (fun (p : Decompose.pair) -> p.alpha) pair)
         (lookup_or_none (fun () -> Decompose.alpha_of d v))
    && opt_eq Bool.equal
         (Option.map (fun (p : Decompose.pair) -> Vset.mem v p.b) pair)
         (lookup_or_none (fun () -> Decompose.in_b d v))
    && opt_eq Bool.equal
         (Option.map (fun (p : Decompose.pair) -> Vset.mem v p.c) pair)
         (lookup_or_none (fun () -> Decompose.in_c d v))
    && go (v + 1)
  in
  go (-1)

let check_lookups g d =
  if not (lookups_agree g d) then
    QCheck2.Test.fail_reportf "indexed lookups disagree with a list scan on@.%a@.%a"
      Graph.pp g Decompose.pp d

let check_all ~solvers g =
  let ref_name, ref_solver = List.hd solvers in
  let d0 = Decompose.compute ~ctx:(Engine.Ctx.make ~solver:ref_solver ()) g in
  List.iter
    (fun (name, solver) ->
      let d = Decompose.compute ~ctx:(Engine.Ctx.make ~solver ()) g in
      if not (Decompose.equal d0 d) then
        QCheck2.Test.fail_reportf
          "solver %s disagrees with %s on@.%a@.%s found:@.%a@.%s found:@.%a"
          name ref_name Graph.pp g ref_name Decompose.pp d0 name Decompose.pp
          d)
    (List.tl solvers);
  (match Decompose.validate g d0 with
  | Ok () -> ()
  | Error m ->
      QCheck2.Test.fail_reportf
        "decomposition violates Proposition 3 on@.%a@.%a@.error: %s" Graph.pp
        g Decompose.pp d0 m);
  check_oracle g d0;
  check_lookups g d0;
  let cert = Certificate.build g d0 in
  (match Certificate.verify g d0 cert with
  | Ok () -> ()
  | Error m ->
      QCheck2.Test.fail_reportf
        "certificate rejected on@.%a@.%a@.error: %s" Graph.pp g Decompose.pp
        d0 m);
  true

(* ------------------------------------------------------------------ *)
(* validate's error branches: seeded mutations against the oracle       *)
(* ------------------------------------------------------------------ *)

let union (p : Decompose.pair) = Vset.union p.b p.c

(* Every mutation of [d] the battery applies, tagged with its kind.  Each
   breaks one invariant of a valid decomposition, though a mutation may
   trip an earlier check first; the oracle decides which message is due. *)
let mutations ~rng g (d : Decompose.t) =
  let n = Graph.n g in
  let pairs = Array.of_list d in
  let k = Array.length pairs in
  let with_pair i p =
    let a = Array.copy pairs in
    a.(i) <- p;
    Array.to_list a
  in
  let add_to i v =
    let p = pairs.(i) in
    if i mod 2 = 0 then { p with b = Vset.add v p.b }
    else { p with c = Vset.add v p.c }
  in
  let idx = List.init k Fun.id in
  let drops =
    List.map
      (fun i ->
        let p = pairs.(i) in
        let v = Vset.min_elt (union p) in
        ( "drop a vertex",
          with_pair i { p with b = Vset.remove v p.b; c = Vset.remove v p.c } ))
      idx
  in
  let copies =
    List.concat_map
      (fun i ->
        let v = Vset.max_elt (union pairs.(i)) in
        List.filter_map
          (fun j ->
            if j = i then None
            else
              Some
                ( (if j < i then "copy into an earlier pair"
                   else "copy into a later pair"),
                  with_pair j (add_to j v) ))
          idx)
      idx
  in
  (* two copies at once: the reported overlap must be the
     lexicographically first pair of pair indices *)
  let double_copies =
    if k < 3 then []
    else
      List.init 8 (fun _ ->
          let pick () = Random.State.int rng k in
          let i1 = pick () and j1 = pick () and i2 = pick () and j2 = pick () in
          let a = Array.copy pairs in
          let copy i j =
            if i <> j then begin
              let v = Vset.min_elt (union pairs.(i)) in
              a.(j) <- { (a.(j)) with c = Vset.add v a.(j).c }
            end
          in
          copy i1 j1;
          copy i2 j2;
          ("two copies", Array.to_list a))
  in
  let strays =
    List.concat_map
      (fun i ->
        let p = pairs.(i) in
        [
          ("out-of-range id n", with_pair i { p with c = Vset.add n p.c });
          ("out-of-range id -1", with_pair i { p with b = Vset.add (-1) p.b });
        ])
      idx
  in
  let swaps =
    List.filter_map
      (fun i ->
        if i + 1 >= k then None
        else
          let a = Array.copy pairs in
          a.(i) <- pairs.(i + 1);
          a.(i + 1) <- pairs.(i);
          Some ("swap adjacent pairs", Array.to_list a))
      idx
  in
  let merges =
    List.filter_map
      (fun i ->
        if i + 1 >= k then None
        else
          let p = pairs.(i) and q = pairs.(i + 1) in
          let merged =
            { Decompose.b = Vset.union p.b q.b; c = Vset.union p.c q.c;
              alpha = q.alpha }
          in
          Some
            ( "merge two pairs",
              List.filteri (fun j _ -> j <> i + 1) (with_pair i merged) ))
      idx
  in
  let unit_moves =
    if k < 2 || not (Rational.equal pairs.(k - 1).alpha Rational.one) then []
    else
      List.init (k - 1) (fun pos ->
          let rest = List.filteri (fun j _ -> j < k - 1) d in
          ( "alpha = 1 pair before the end",
            List.filteri (fun j _ -> j < pos) rest
            @ (pairs.(k - 1) :: List.filteri (fun j _ -> j >= pos) rest) ))
  in
  let bc_swaps =
    List.map
      (fun i ->
        let p = pairs.(i) in
        ("swap B and C", with_pair i { p with b = p.c; c = p.b }))
      idx
  in
  (* move a neighbour u of some v in B_i into B_i, out of whichever pair
     held it: the partition survives, B_i's independence does not *)
  let dependents =
    List.filter_map
      (fun i ->
        let p = pairs.(i) in
        let edge =
          Vset.fold
            (fun v acc ->
              match acc with
              | Some _ -> acc
              | None -> Array.find_opt (fun _ -> true) (Graph.neighbors g v))
            p.b None
        in
        Option.map
          (fun u ->
            let a =
              Array.map
                (fun (q : Decompose.pair) ->
                  { q with b = Vset.remove u q.b; c = Vset.remove u q.c })
                pairs
            in
            a.(i) <- { (a.(i)) with b = Vset.add u a.(i).b };
            ("B_i not independent", Array.to_list a))
          edge)
      idx
  in
  (* two more, for the two messages no mutation above reaches first *)
  let meets =
    List.filter_map
      (fun i ->
        let p = pairs.(i) in
        if Vset.is_empty p.c then None
        else
          Some
            ( "B_i meets C_i",
              with_pair i { p with b = Vset.add (Vset.min_elt p.c) p.b } ))
      idx
  in
  let above_one =
    ( "alpha above 1",
      with_pair (k - 1)
        { (pairs.(k - 1)) with alpha = Rational.of_int 2 } )
  in
  List.concat
    [ drops; copies; double_copies; strays; swaps; merges; unit_moves;
      bc_swaps; dependents; meets; [ above_one ] ]

let mutation_instances =
  let dists =
    [ Weights.Uniform (1, 100); Weights.Powerlaw (100, 1.5);
      Weights.Bimodal (1, 50, 0.3) ]
  in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun dist ->
              [ Instances.ring ~seed ~n dist; Instances.path ~seed ~n dist ])
            dists)
        [ 5; 9; 16; 40 ])
    [ 1; 2; 3 ]
  (* equal weights end in an alpha = 1 pair after an alpha < 1 one *)
  @ [ Generators.path_of_ints [| 1; 9; 1; 2; 2; 2; 2 |];
      Generators.ring_of_ints [| 5; 1; 5; 3; 3; 3; 3; 3 |] ]

let test_mutation_battery () =
  let rng = Random.State.make [| 2024 |] in
  let tried = Hashtbl.create 16 and failed = Hashtbl.create 16 in
  let messages = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let d = Decompose.compute g in
      check_oracle g d;
      List.iter
        (fun (kind, d') ->
          Hashtbl.replace tried kind ();
          let fast = Decompose.validate g d'
          and slow = Validate_oracle.validate_quadratic g d' in
          if not (same_result fast slow) then
            Alcotest.failf "%s: validate %a, oracle %a on@.%a@.%a" kind
              pp_result fast pp_result slow Graph.pp g Decompose.pp d';
          match fast with
          | Ok () -> ()
          | Error m ->
              Hashtbl.replace failed kind ();
              (* the message with each number replaced by '#' *)
              let family = Buffer.create 48 in
              String.iteri
                (fun i c ->
                  let digit c = c >= '0' && c <= '9' in
                  if not (digit c) then Buffer.add_char family c
                  else if i = 0 || not (digit m.[i - 1]) then
                    Buffer.add_char family '#')
                m;
              let family = Buffer.contents family in
              Hashtbl.replace messages family ())
        (mutations ~rng g d))
    mutation_instances;
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " applied") true (Hashtbl.mem tried kind);
      Alcotest.(check bool) (kind ^ " rejected") true (Hashtbl.mem failed kind))
    [ "drop a vertex"; "copy into an earlier pair"; "copy into a later pair";
      "two copies"; "out-of-range id n"; "out-of-range id -1";
      "swap adjacent pairs"; "merge two pairs"; "alpha = 1 pair before the end";
      "swap B and C"; "B_i not independent"; "B_i meets C_i";
      "alpha above 1" ];
  let seen =
    List.sort String.compare (Hashtbl.fold (fun m () acc -> m :: acc) messages [])
  in
  (* every Error branch of validate, each reached by some mutation *)
  Alcotest.(check (list string)) "error messages reached"
    [ "B_# and C_# intersect with alpha < #"; "B_# is not independent";
      "alpha_# = # but B_# <> C_#"; "alpha_# = # but pair is not last";
      "alpha_# > #"; "alpha_# >= alpha_#"; "edge between B_# and B_#";
      "edge between B_# and C_#"; "pairs # and # overlap";
      "pairs do not cover the vertex set" ]
    seen

(* ------------------------------------------------------------------ *)
(* Lookups through the per-domain index memo                           *)
(* ------------------------------------------------------------------ *)

let lookup_instances =
  List.map
    (fun seed -> Instances.ring ~seed ~n:40 (Weights.Uniform (1, 100)))
    [ 11; 12; 13 ]

(* Three decompositions looked up in turn, so every switch replaces the
   memoised index and every return rebuilds it; a decomposition equal to
   the memoised one but physically distinct must get the same answers. *)
let test_lookup_switching () =
  let gs = Array.of_list lookup_instances in
  let ds = Array.map (fun g -> Decompose.compute g) gs in
  for round = 1 to 4 do
    Array.iteri
      (fun i g ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d, decomposition %d" round i)
          true
          (lookups_agree g ds.(i)))
      gs
  done;
  (* per vertex: d0, then d1 replaces it, d0 is rebuilt, d0 again hits,
     and d2 and d1 replace each in turn *)
  let n = Graph.n gs.(0) in
  for v = 0 to n - 1 do
    List.iter
      (fun i ->
        Alcotest.(check (option int))
          (Printf.sprintf "pair_index d%d %d" i v)
          (scan_index ds.(i) v)
          (lookup_or_none (fun () -> Decompose.pair_index ds.(i) v)))
      [ 0; 1; 0; 0; 2; 1 ]
  done;
  let copy = List.map Fun.id ds.(0) in
  Alcotest.(check bool) "a rebuilt copy" true (lookups_agree gs.(0) copy)

let test_lookup_not_found () =
  List.iter
    (fun g ->
      let d = Decompose.compute g in
      let n = Graph.n g in
      List.iter
        (fun v ->
          Alcotest.check_raises (Printf.sprintf "pair_index %d" v) Not_found
            (fun () -> ignore (Decompose.pair_index d v));
          Alcotest.check_raises (Printf.sprintf "alpha_of %d" v) Not_found
            (fun () -> ignore (Decompose.alpha_of d v)))
        [ -1; n; n + 1; max_int; min_int ])
    lookup_instances

(* Two domains looking up at once through Parwork.map: each has its own
   memo, and every answer still equals the scan's. *)
let test_lookup_domains () =
  let items =
    Array.of_list
      (List.concat_map
         (fun g -> [ (g, Decompose.compute g); (g, Decompose.compute g) ])
         lookup_instances)
  in
  let agree =
    Parwork.map ~domains:2
      (fun (g, d) ->
        let ok = ref true in
        for _ = 1 to 3 do
          Array.iter (fun (g', d') -> ok := !ok && lookups_agree g' d') items;
          ok := !ok && lookups_agree g d
        done;
        !ok)
      items
  in
  Alcotest.(check (array bool)) "all domains agree"
    (Array.make (Array.length items) true) agree

(* Large seeded instances: the per-component driver (implicit backend)
   against the same instance with materialised adjacency — the two code
   paths share no adjacency representation, so agreement here pins the
   whole implicit-backend + zero-copy-driver stack at sizes the
   QCheck generators never reach. *)
let test_large_backends () =
  List.iter
    (fun (seed, n, kind) ->
      let family = Weights.Uniform (1, 100) in
      let g =
        match kind with
        | `Ring -> Instances.ring ~seed ~n family
        | `Chain -> Instances.path ~seed ~n family
      in
      let ctx = Engine.Ctx.make ~solver:Decompose.FastChain () in
      let d_impl = Decompose.compute ~ctx g in
      let d_mat = Decompose.compute ~ctx (Graph.materialise g) in
      Alcotest.(check bool)
        (Printf.sprintf "implicit = materialised (n=%d)" n)
        true
        (Decompose.equal d_impl d_mat))
    [
      (3, 1_000, `Ring);
      (4, 1_000, `Chain);
      (5, 10_000, `Ring);
      (6, 10_000, `Chain);
    ]

(* The O(n log n) driver against the generic whole-mask loop at a size
   where the quadratic loop is still tolerable: bit-identical pairs and
   alphas (the driver's int-scaled alpha arithmetic included). *)
let test_driver_vs_generic_large () =
  let g = Instances.ring ~seed:7 ~n:512 (Weights.Uniform (1, 100)) in
  let ctx = Engine.Ctx.make ~solver:Decompose.FastChain () in
  let d = Decompose.compute ~ctx g in
  let d_gen = Decompose.For_testing.compute_generic ~ctx g in
  Alcotest.(check bool) "driver = generic loop (n=512)" true
    (Decompose.equal d d_gen)

(* Grid-vs-exact sweep differential: under every registered solver the
   exact event-driven sweep must dominate the grid sweep (its ratio is
   the certified supremum) while both sweeps agree on the honest
   utility, and the exact results themselves must be bit-identical
   across solvers (the sweep machinery only consumes decompositions,
   which the solver-agreement battery pins). *)
let check_sweeps g =
  let v = 0 in
  if Rational.sign (Graph.weight g v) = 0 then true
  else begin
    let exacts =
      List.map
        (fun (name, solver) ->
          let ctx = Engine.Ctx.make ~solver ~sweep:Engine.Exact () in
          (name, Incentive.best_split_exact ~ctx g ~v))
        all_solvers
    in
    let _, e0 = List.hd exacts in
    List.iter
      (fun (name, e) ->
        if
          Qx.compare e0.Incentive.ratio_exact e.Incentive.ratio_exact <> 0
          || Qx.compare e0.Incentive.w1_exact e.Incentive.w1_exact <> 0
          || e0.Incentive.pieces <> e.Incentive.pieces
          || e0.Incentive.events <> e.Incentive.events
        then
          QCheck2.Test.fail_reportf
            "exact sweep under solver %s disagrees on@.%a@.ratio %s vs %s"
            name Graph.pp g
            (Qx.to_string e0.Incentive.ratio_exact)
            (Qx.to_string e.Incentive.ratio_exact))
      (List.tl exacts);
    List.iter
      (fun (name, solver) ->
        let ctx = Engine.Ctx.make ~solver ~grid:12 ~refine:2 () in
        let a = Incentive.best_split ~ctx g ~v in
        if Qx.compare_q e0.Incentive.ratio_exact a.Incentive.ratio < 0 then
          QCheck2.Test.fail_reportf
            "grid sweep under solver %s beats the exact sweep on@.%a@.%s > %s"
            name Graph.pp g
            (Rational.to_string a.Incentive.ratio)
            (Qx.to_string e0.Incentive.ratio_exact);
        if
          Rational.compare a.Incentive.honest
            e0.Incentive.witness.Incentive.honest
          <> 0
        then
          QCheck2.Test.fail_reportf
            "sweeps disagree on the honest utility under solver %s on@.%a"
            name Graph.pp g)
      all_solvers;
    true
  end

(* ------------------------------------------------------------------ *)
(* k-identity split vectors                                            *)
(* ------------------------------------------------------------------ *)

(* At the default two identities the k-way entry points are the
   historical search: same vertex, same weights (as a pair), same
   utility/honest/ratio — in both sweep modes, serial and parallel. *)
let check_k2_bit_identity g =
  List.iter
    (fun (sweep, domains) ->
      let ctx = Engine.Ctx.make ~sweep ~grid:8 ~refine:1 ~domains () in
      let a = Incentive.best_attack ~ctx g in
      let ka = Incentive.best_attack_k ~ctx g in
      let w2 = Rational.sub (Graph.weight g a.Incentive.v) a.Incentive.w1 in
      if
        ka.Incentive.v <> a.Incentive.v
        || Array.length ka.Incentive.weights <> 2
        || not (Rational.equal ka.Incentive.weights.(0) a.Incentive.w1)
        || not (Rational.equal ka.Incentive.weights.(1) w2)
        || not (Rational.equal ka.Incentive.utility a.Incentive.utility)
        || not (Rational.equal ka.Incentive.honest a.Incentive.honest)
        || not (Rational.equal ka.Incentive.ratio a.Incentive.ratio)
      then
        QCheck2.Test.fail_reportf
          "best_attack_k at k=2 differs from best_attack (domains=%d) on@.%a"
          domains Graph.pp g)
    [
      (Engine.Grid, 1); (Engine.Grid, 3);
      (Engine.Exact, 1); (Engine.Exact, 3);
    ];
  true

(* Hard pins on the ring [7;2;9;4;3] so a silent change in either sweep
   shows up as a concrete value, not just a broken equality. *)
let test_k2_pins () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  List.iter
    (fun domains ->
      let ctx = Engine.Ctx.make ~grid:8 ~refine:1 ~domains () in
      let a = Incentive.best_attack ~ctx g in
      Alcotest.(check int) "grid v" 0 a.Incentive.v;
      Alcotest.(check string) "grid w1" "21/4"
        (Rational.to_string a.Incentive.w1);
      Alcotest.(check string) "grid utility" "5"
        (Rational.to_string a.Incentive.utility);
      Alcotest.(check string) "grid honest" "63/16"
        (Rational.to_string a.Incentive.honest);
      Alcotest.(check string) "grid ratio" "80/63"
        (Rational.to_string a.Incentive.ratio);
      let ka = Incentive.best_attack_k ~ctx g in
      Alcotest.(check string) "k-way grid weights" "21/4;7/4"
        (String.concat ";"
           (Array.to_list (Array.map Rational.to_string ka.Incentive.weights)));
      Alcotest.(check string) "k-way grid ratio" "80/63"
        (Rational.to_string ka.Incentive.ratio);
      let ctxe = Engine.Ctx.make ~sweep:Engine.Exact ~domains () in
      let e = Incentive.best_attack_exact ~ctx:ctxe g in
      Alcotest.(check string) "exact w1" "9/2"
        (Qx.to_string e.Incentive.w1_exact);
      Alcotest.(check string) "exact ratio" "80/63"
        (Qx.to_string e.Incentive.ratio_exact);
      Alcotest.(check int) "exact pieces" 7 e.Incentive.pieces;
      Alcotest.(check int) "exact events" 6 e.Incentive.events;
      let kae = Incentive.best_attack_k ~ctx:ctxe g in
      Alcotest.(check string) "k-way exact weights" "9/2;5/2"
        (String.concat ";"
           (Array.to_list
              (Array.map Rational.to_string kae.Incentive.weights)));
      Alcotest.(check string) "k-way exact ratio" "80/63"
        (Rational.to_string kae.Incentive.ratio))
    [ 1; 3 ]

(* Reference oracle for k >= 3: enumerate the whole simplex lattice. *)
let brute_attack_k g ~k ~grid =
  let best = ref Rational.zero in
  for v = 0 to Graph.n g - 1 do
    let w = Graph.weight g v in
    let honest = Sybil.honest_utility g ~v in
    if Rational.sign honest > 0 && Rational.sign w > 0 then begin
      let step = Rational.div_int w grid in
      let rec go m remaining acc =
        if m = 1 then begin
          let ws = Array.of_list (List.rev (remaining :: acc)) in
          let u = Sybil.splitk_utility g { Sybil.v; weights = ws } in
          let r = Rational.div u honest in
          if Rational.compare r !best > 0 then best := r
        end
        else
          for i = 0 to grid do
            let x = Rational.mul_int step i in
            if Rational.compare x remaining <= 0 then
              go (m - 1) (Rational.sub remaining x) (x :: acc)
          done
      in
      go k w []
    end
  done;
  !best

(* The production simplex sweep at refine:0 on a grid divisible by k
   visits exactly the brute lattice (the uniform seed w/k included), so
   the two ratios must be *equal*; the zoomed sweep and the exact
   coordinate descent may only improve on it. *)
let test_k3_brute_tieout () =
  List.iter
    (fun (seed, n) ->
      let g = Instances.ring ~seed ~n (Weights.Uniform (1, 12)) in
      let brute = brute_attack_k g ~k:3 ~grid:6 in
      let flat =
        Incentive.best_attack_k
          ~ctx:(Engine.Ctx.make ~grid:6 ~refine:0 ~identities:3 ())
          g
      in
      let zoomed =
        Incentive.best_attack_k
          ~ctx:(Engine.Ctx.make ~grid:6 ~refine:2 ~identities:3 ())
          g
      in
      Alcotest.(check string)
        (Printf.sprintf "refine:0 = brute (seed %d, n=%d)" seed n)
        (Rational.to_string brute)
        (Rational.to_string flat.Incentive.ratio);
      Alcotest.(check bool)
        (Printf.sprintf "zoomed >= brute (seed %d, n=%d)" seed n)
        true
        (Rational.compare zoomed.Incentive.ratio brute >= 0))
    [ (11, 3); (12, 4); (13, 5); (14, 4); (15, 5) ]

(* The record instance: a 3-way split beats Theorem 8's 2-identity
   bound, certified by the exact coordinate-descent sweep. *)
let test_k3_beats_two () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let k3 =
    Incentive.best_attack_k
      ~ctx:(Engine.Ctx.make ~sweep:Engine.Exact ~identities:3 ())
      g
  in
  Alcotest.(check int) "record v" 0 k3.Incentive.v;
  Alcotest.(check string) "record weights" "0;4;3"
    (String.concat ";"
       (Array.to_list (Array.map Rational.to_string k3.Incentive.weights)));
  Alcotest.(check string) "record ratio 128/63 > 2" "128/63"
    (Rational.to_string k3.Incentive.ratio)

let () =
  Alcotest.run "differential"
    [
      ( "large instances",
        [
          Alcotest.test_case "implicit vs materialised backends" `Quick
            test_large_backends;
          Alcotest.test_case "driver vs generic loop" `Quick
            test_driver_vs_generic_large;
        ] );
      ( "solver agreement",
        [
          Helpers.qtest ~count:100
            "rings: fast-chain = flow = brute = auto + certificate"
            (Helpers.ring_gen ~nmax:9 ())
            (check_all ~solvers:all_solvers);
          Helpers.qtest ~count:60
            "paths: fast-chain = flow = brute = auto + certificate"
            (Helpers.path_gen ~nmax:9 ())
            (check_all ~solvers:all_solvers);
          Helpers.qtest ~count:60
            "general graphs: flow = brute = auto + certificate"
            (Helpers.graph_gen ~nmax:7 ())
            (check_all ~solvers:general_solvers);
        ] );
      ( "validate oracle",
        [
          Alcotest.test_case "seeded mutations match the quadratic oracle"
            `Quick test_mutation_battery;
        ] );
      ( "lookups",
        [
          Alcotest.test_case "switching decompositions rebuilds the memo"
            `Quick test_lookup_switching;
          Alcotest.test_case "Not_found outside the vertex range" `Quick
            test_lookup_not_found;
          Alcotest.test_case "two domains via Parwork.map" `Quick
            test_lookup_domains;
        ] );
      ( "sweep agreement",
        [
          Helpers.qtest ~count:25
            "rings: exact sweep identical across solvers, dominates grid"
            (Helpers.ring_gen ~nmax:7 ~wmax:20 ())
            check_sweeps;
        ] );
      ( "k-way",
        [
          Helpers.qtest ~count:20
            "rings: k=2 entry points bit-identical to the 2-split search"
            (Helpers.ring_gen ~nmax:6 ~wmax:15 ())
            check_k2_bit_identity;
          Alcotest.test_case "k=2 pins on [7;2;9;4;3]" `Quick test_k2_pins;
          Alcotest.test_case "k=3 ties out with brute force (n=3..5)" `Quick
            test_k3_brute_tieout;
          Alcotest.test_case "k=3 record ratio 128/63 > 2" `Quick
            test_k3_beats_two;
        ] );
    ]
