(* The execution engine: context defaults, the bounded sharded cache,
   solver names and Auto routing, batch execution, and the cache's headline
   property — a warm-cache best_attack redoes (far) fewer than half the
   cold run's decompositions yet returns the bit-identical attack. *)

module Q = Rational
module E = Ringshare_error

let with_obs ?(metrics = false) f =
  Obs.reset ();
  Obs.set_metrics metrics;
  Fun.protect f ~finally:(fun () -> Obs.set_metrics false)

let count s sub name = Obs.counter_value s ~subsystem:sub name

let gauge s sub name =
  List.fold_left
    (fun acc (e : Obs.entry) ->
      if String.equal e.subsystem sub && String.equal e.name name then e.value
      else acc)
    0 (Obs.gauges s)

(* ------------------------------------------------------------------ *)
(* Ctx: the single source of defaults                                  *)
(* ------------------------------------------------------------------ *)

(* Pins the documented defaults (engine.mli, README): a drive-by edit
   of one default must show up here, not silently shift every search. *)
let test_ctx_defaults () =
  let d = Engine.Ctx.default in
  Alcotest.(check bool) "solver Auto" true (d.Engine.Ctx.solver = Engine.Auto);
  Alcotest.(check int) "grid 32" 32 d.Engine.Ctx.grid;
  Alcotest.(check int) "refine 3" 3 d.Engine.Ctx.refine;
  Alcotest.(check int) "domains 1" 1 d.Engine.Ctx.domains;
  Alcotest.(check bool) "no budget" true (d.Engine.Ctx.budget = None);
  Alcotest.(check bool) "no cache" true (d.Engine.Ctx.cache = None);
  Alcotest.(check int) "default_grid agrees" Engine.Ctx.default_grid
    d.Engine.Ctx.grid;
  Alcotest.(check int) "default_refine agrees" Engine.Ctx.default_refine
    d.Engine.Ctx.refine;
  Alcotest.(check bool) "get None = default" true
    (Engine.Ctx.get None == Engine.Ctx.default);
  let c = Engine.Ctx.make ~grid:7 () in
  Alcotest.(check int) "make overrides grid" 7 c.Engine.Ctx.grid;
  Alcotest.(check int) "make keeps refine default" 3 c.Engine.Ctx.refine

let test_ctx_builders () =
  let b = Budget.create ~steps:10 () in
  let c =
    Engine.Ctx.(
      default |> with_grid 5 |> with_refine 1 |> with_domains 3
      |> with_budget b)
  in
  Alcotest.(check int) "with_grid" 5 c.Engine.Ctx.grid;
  Alcotest.(check int) "with_refine" 1 c.Engine.Ctx.refine;
  Alcotest.(check int) "with_domains" 3 c.Engine.Ctx.domains;
  Alcotest.(check bool) "with_budget" true (c.Engine.Ctx.budget = Some b);
  let c' = Engine.Ctx.without_budget c in
  Alcotest.(check bool) "without_budget" true (c'.Engine.Ctx.budget = None);
  Alcotest.(check bool) "budget_or_unlimited unbounded on None" true
    (not (Budget.is_limited (Engine.Ctx.budget_or_unlimited c')))

(* ------------------------------------------------------------------ *)
(* Cache: counters, bound, eviction                                    *)
(* ------------------------------------------------------------------ *)

type Engine.Cache.value += V of int

let v_of = function Some (V n) -> Some n | _ -> None

let test_cache_identities () =
  with_obs ~metrics:true (fun () ->
      let c = Engine.Cache.create ~shards:4 ~capacity:16 () in
      Engine.Cache.store c "a" (V 1);
      Engine.Cache.store c "b" (V 2);
      Alcotest.(check (option int)) "find a" (Some 1)
        (v_of (Engine.Cache.find c "a"));
      Alcotest.(check (option int)) "find b" (Some 2)
        (v_of (Engine.Cache.find c "b"));
      Alcotest.(check (option int)) "miss" None
        (v_of (Engine.Cache.find c "z"));
      let s = Obs.snapshot () in
      let lookups = count s "engine" "cache_lookups" in
      let hits = count s "engine" "cache_hits" in
      let misses = count s "engine" "cache_misses" in
      Alcotest.(check int) "3 lookups" 3 lookups;
      Alcotest.(check int) "hits + misses = lookups" lookups (hits + misses);
      Alcotest.(check int) "2 hits" 2 hits;
      Alcotest.(check int) "2 stores" 2 (count s "engine" "cache_stores");
      Alcotest.(check int) "length" 2 (Engine.Cache.length c);
      Engine.Cache.clear c;
      Alcotest.(check int) "clear empties" 0 (Engine.Cache.length c))

(* one shard = one global FIFO order, so eviction is fully predictable *)
let test_cache_bounded_fifo () =
  with_obs ~metrics:true (fun () ->
      let c = Engine.Cache.create ~shards:1 ~capacity:3 () in
      Alcotest.(check int) "capacity" 3 (Engine.Cache.capacity c);
      List.iter
        (fun (k, v) -> Engine.Cache.store c k (V v))
        [ ("k1", 1); ("k2", 2); ("k3", 3) ];
      Alcotest.(check int) "at capacity" 3 (Engine.Cache.length c);
      (* replacing an existing key must not evict anyone *)
      Engine.Cache.store c "k2" (V 22);
      Alcotest.(check int) "replace keeps length" 3 (Engine.Cache.length c);
      Alcotest.(check (option int)) "replace visible" (Some 22)
        (v_of (Engine.Cache.find c "k2"));
      (* a fourth key evicts the oldest insertion, k1, and only it *)
      Engine.Cache.store c "k4" (V 4);
      Alcotest.(check int) "still bounded" 3 (Engine.Cache.length c);
      Alcotest.(check (option int)) "k1 evicted first-in-first-out" None
        (v_of (Engine.Cache.find c "k1"));
      Alcotest.(check (option int)) "k2 survives" (Some 22)
        (v_of (Engine.Cache.find c "k2"));
      Alcotest.(check (option int)) "k3 survives" (Some 3)
        (v_of (Engine.Cache.find c "k3"));
      Alcotest.(check (option int)) "k4 present" (Some 4)
        (v_of (Engine.Cache.find c "k4"));
      let s = Obs.snapshot () in
      Alcotest.(check int) "exactly one eviction" 1
        (count s "engine" "cache_evictions");
      Alcotest.(check bool) "peak gauge saw the bound" true
        (gauge s "engine" "cache_peak" >= 3))

let test_cache_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Engine.Cache.create: capacity < 1") (fun () ->
      ignore (Engine.Cache.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Solver names and Auto routing                                       *)
(* ------------------------------------------------------------------ *)

(* The fixed solver vocabulary the CLI validates --solver against, and
   Auto's one-match routing: the linear chain DP on chain graphs (paths
   and rings alike), the generic flow solver on anything of higher
   degree — read off the decomposition's auto_* counters. *)
let test_solver_routing () =
  Alcotest.(check (list string)) "solver_names"
    [ "auto"; "brute"; "fast-chain"; "flow" ] Engine.solver_names;
  Alcotest.(check bool) "quadratic chain DP retired" true
    (Engine.solver_of_name "chain" = None);
  let path = Generators.path_of_ints [| 3; 1; 2 |] in
  let ring = Generators.ring_of_ints [| 3; 1; 2; 5 |] in
  let star = Generators.star (Array.map Q.of_int [| 4; 1; 1; 1 |]) in
  let routed g =
    with_obs ~metrics:true (fun () ->
        let s0 = Obs.snapshot () in
        ignore (Decompose.compute g);
        let d = Obs.diff (Obs.snapshot ()) s0 in
        match
          ( count d "decomposition" "auto_fastchain",
            count d "decomposition" "auto_flow" )
        with
        | 1, 0 -> "fast-chain"
        | 0, 1 -> "flow"
        | c, f -> Printf.sprintf "fastchain=%d flow=%d" c f)
  in
  Alcotest.(check string) "path -> fast-chain" "fast-chain" (routed path);
  Alcotest.(check string) "ring -> fast-chain" "fast-chain" (routed ring);
  Alcotest.(check string) "star -> flow" "flow" (routed star)

let test_solver_names () =
  List.iter
    (fun (s, n) ->
      Alcotest.(check string) ("name of " ^ n) n (Engine.solver_name s);
      Alcotest.(check bool) ("roundtrip " ^ n) true
        (Engine.solver_of_name n = Some s))
    [
      (Engine.FastChain, "fast-chain"); (Engine.Flow, "flow");
      (Engine.Brute, "brute"); (Engine.Auto, "auto");
    ];
  List.iter
    (fun n ->
      Alcotest.(check bool) ("listed " ^ n) true
        (Engine.solver_of_name n <> None))
    Engine.solver_names;
  Alcotest.(check bool) "unknown name rejected" true
    (Engine.solver_of_name "simplex" = None)

(* ------------------------------------------------------------------ *)
(* Cross-search cache: fewer computes, identical results               *)
(* ------------------------------------------------------------------ *)

let e2_ring () = Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |]

let check_attack msg (a : Incentive.attack) (b : Incentive.attack) =
  Alcotest.(check int) (msg ^ ": vertex") a.Incentive.v b.Incentive.v;
  Helpers.check_q (msg ^ ": w1") a.Incentive.w1 b.Incentive.w1;
  Helpers.check_q (msg ^ ": utility") a.Incentive.utility b.Incentive.utility;
  Helpers.check_q (msg ^ ": honest") a.Incentive.honest b.Incentive.honest;
  Helpers.check_q (msg ^ ": ratio") a.Incentive.ratio b.Incentive.ratio

(* The acceptance property of the whole engine: re-running a search
   against a warm cache recomputes at most half the decompositions of
   the cold run (in practice almost none) and returns the bit-identical
   attack.  A plain uncached run referees the values. *)
let test_warm_cache_best_attack () =
  let g = e2_ring () in
  let plain =
    Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g
  in
  with_obs ~metrics:true (fun () ->
      let cache = Engine.Cache.create ~capacity:4096 () in
      let ctx = Engine.Ctx.make ~grid:8 ~refine:1 ~cache () in
      let s0 = Obs.snapshot () in
      let cold = Incentive.best_attack ~ctx g in
      let s1 = Obs.snapshot () in
      let warm = Incentive.best_attack ~ctx g in
      let s2 = Obs.snapshot () in
      let computes a b = count (Obs.diff b a) "decomposition" "computes" in
      let cold_n = computes s0 s1 and warm_n = computes s1 s2 in
      Alcotest.(check bool) "cold run decomposes" true (cold_n > 0);
      Alcotest.(check bool)
        (Printf.sprintf "warm computes %d <= cold %d / 2" warm_n cold_n)
        true (2 * warm_n <= cold_n);
      Alcotest.(check bool) "cache stayed bounded" true
        (Engine.Cache.length cache <= Engine.Cache.capacity cache);
      check_attack "cold = plain" plain cold;
      check_attack "warm = cold" cold warm)

(* The cache holds one entry per attack request: a cold search makes a
   single lookup and runs every decomposition cache-free (so exactly as
   many as with no cache at all), the warm repeat is one hit and no
   work, and an exact search given no cache never touches one. *)
let obs_delta f =
  let s0 = Obs.snapshot () in
  let r = f () in
  (r, Obs.diff (Obs.snapshot ()) s0)

let grid_ctx = Engine.Ctx.make ~grid:8 ~refine:1 ()

let test_cold_one_lookup () =
  let g = e2_ring () in
  with_obs ~metrics:true (fun () ->
      let plain, d_plain =
        obs_delta (fun () -> Incentive.best_attack ~ctx:grid_ctx g)
      in
      let ctx =
        Engine.Ctx.with_cache (Engine.Cache.create ~capacity:64 ()) grid_ctx
      in
      let cold, d_cold = obs_delta (fun () -> Incentive.best_attack ~ctx g) in
      Alcotest.(check int) "one lookup" 1
        (count d_cold "engine" "cache_lookups");
      Alcotest.(check int) "computes as without a cache"
        (count d_plain "decomposition" "computes")
        (count d_cold "decomposition" "computes");
      check_attack "cold = plain" plain cold)

let test_warm_one_hit () =
  let g = e2_ring () in
  with_obs ~metrics:true (fun () ->
      let ctx =
        Engine.Ctx.with_cache (Engine.Cache.create ~capacity:64 ()) grid_ctx
      in
      let cold = Incentive.best_attack ~ctx g in
      let warm, d = obs_delta (fun () -> Incentive.best_attack ~ctx g) in
      Alcotest.(check int) "one lookup" 1 (count d "engine" "cache_lookups");
      Alcotest.(check int) "one hit" 1 (count d "engine" "cache_hits");
      Alcotest.(check int) "no computes" 0 (count d "decomposition" "computes");
      check_attack "warm = cold" cold warm)

let test_exact_no_cache_no_lookups () =
  let g = e2_ring () in
  with_obs ~metrics:true (fun () ->
      let _, d =
        obs_delta (fun () -> Incentive.best_attack_exact ~ctx:grid_ctx g)
      in
      Alcotest.(check int) "no lookups" 0 (count d "engine" "cache_lookups"))

(* Each result type has its own key space: a 2-split grid answer is
   never served to a 3-identity request on the same graph, and a warm
   k = 3 request is served whole. *)
let test_request_keys_by_kind () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let ctx3 = Engine.Ctx.make ~grid:4 ~refine:1 ~identities:3 () in
  let plain = Incentive.best_attack_k ~ctx:ctx3 g in
  with_obs ~metrics:true (fun () ->
      let ctx =
        Engine.Ctx.with_cache (Engine.Cache.create ~capacity:64 ()) ctx3
      in
      ignore (Incentive.best_attack ~ctx g);
      let cold = Incentive.best_attack_k ~ctx g in
      let s = Obs.snapshot () in
      let warm = Incentive.best_attack_k ~ctx g in
      let d = Obs.diff (Obs.snapshot ()) s in
      Alcotest.(check int) "k3 warm: one hit" 1 (count d "engine" "cache_hits");
      List.iter
        (fun (msg, (a : Incentive.kattack)) ->
          Alcotest.(check int) (msg ^ ": vertex") plain.Incentive.v
            a.Incentive.v;
          Alcotest.(check bool) (msg ^ ": weights") true
            (Array.for_all2 Q.equal plain.Incentive.weights
               a.Incentive.weights);
          Helpers.check_q (msg ^ ": ratio") plain.Incentive.ratio
            a.Incentive.ratio)
        [ ("k3 cold = plain", cold); ("k3 warm = plain", warm) ])

(* ------------------------------------------------------------------ *)
(* The four attack kinds: fan-out vs checkpointed scan                *)
(* ------------------------------------------------------------------ *)

(* Every field of a result, printed: two results agree iff their
   renderings do (vertex, weights, utilities, ratio, and for the exact
   sweep the Qx optimum, pieces and events). *)
let show_attack (a : Incentive.attack) =
  Printf.sprintf "v=%d w1=%s u=%s h=%s r=%s" a.Incentive.v
    (Q.to_string a.Incentive.w1)
    (Q.to_string a.Incentive.utility)
    (Q.to_string a.Incentive.honest)
    (Q.to_string a.Incentive.ratio)

let show_exact (e : Incentive.exact_attack) =
  Printf.sprintf "%s x=%s ux=%s rx=%s pieces=%d events=%d"
    (show_attack e.Incentive.witness)
    (Qx.to_string e.Incentive.w1_exact)
    (Qx.to_string e.Incentive.utility_exact)
    (Qx.to_string e.Incentive.ratio_exact)
    e.Incentive.pieces e.Incentive.events

let show_k (a : Incentive.kattack) =
  Printf.sprintf "v=%d ws=%s u=%s h=%s r=%s" a.Incentive.v
    (String.concat ";" (List.map Q.to_string (Array.to_list a.Incentive.weights)))
    (Q.to_string a.Incentive.utility)
    (Q.to_string a.Incentive.honest)
    (Q.to_string a.Incentive.ratio)

let show_opt show = function Some a -> show a | None -> "none"

(* grid 16 / refine 1 clears the grid kind's fan-out floor
   ((16 + 1) · (1 + 1) ≥ 32), so domains 2 really fans out there too *)
let kind_ctx ~identities ~sweep =
  Engine.Ctx.make ~grid:16 ~refine:1 ~identities ~sweep ()

(* (name, context, fan-out rendered, scan's best rendered) *)
let attack_kinds =
  [
    ( "k2 grid", kind_ctx ~identities:2 ~sweep:Engine.Grid,
      (fun ctx g -> show_attack (Incentive.best_attack ~ctx g)),
      fun (p : Incentive.progress) -> show_opt show_attack p.Incentive.best );
    ( "k2 exact", kind_ctx ~identities:2 ~sweep:Engine.Exact,
      (fun ctx g -> show_exact (Incentive.best_attack_exact ~ctx g)),
      fun p ->
        (* under Exact the scan's [best] is the certified optimum's
           witness *)
        Alcotest.(check string) "best = witness of best_exact"
          (show_opt show_attack
             (Option.map (fun e -> e.Incentive.witness) p.Incentive.best_exact))
          (show_opt show_attack p.Incentive.best);
        show_opt show_exact p.Incentive.best_exact );
    ( "k3 grid", kind_ctx ~identities:3 ~sweep:Engine.Grid,
      (fun ctx g -> show_k (Incentive.best_attack_k ~ctx g)),
      fun p -> show_opt show_k p.Incentive.best_k );
    ( "k3 exact", kind_ctx ~identities:3 ~sweep:Engine.Exact,
      (fun ctx g -> show_k (Incentive.best_attack_k ~ctx g)),
      fun p -> show_opt show_k p.Incentive.best_k );
  ]

let kinds_ring () = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |]

(* The checkpointed scan and the fan-out are two walks of one
   all-vertex maximum: for every kind, at one domain and at two, they
   report the same winner to the last field. *)
let test_kinds_scan_equals_fanout () =
  let g = kinds_ring () in
  List.iter
    (fun (name, ctx, fanout, scanned) ->
      List.iter
        (fun domains ->
          let ctx = Engine.Ctx.with_domains domains ctx in
          let msg = Printf.sprintf "%s, domains %d" name domains in
          let p = Incentive.best_attack_within ~ctx g in
          Alcotest.(check bool) (msg ^ ": scan complete") true
            (p.Incentive.status = Ok ());
          Alcotest.(check string) msg (fanout ctx g) (scanned p))
        [ 1; 2 ])
    attack_kinds

(* One shared cache serves all four kinds: each is its own request key,
   so a first round stores four results and a second round hits four. *)
let test_kinds_share_one_cache () =
  let g = kinds_ring () in
  with_obs ~metrics:true (fun () ->
      let cache = Engine.Cache.create ~capacity:64 () in
      let round () =
        obs_delta (fun () ->
            List.map
              (fun (_, ctx, fanout, _) ->
                fanout (Engine.Ctx.with_cache cache ctx) g)
              attack_kinds)
      in
      let cold, d1 = round () in
      let warm, d2 = round () in
      Alcotest.(check int) "round 1: four stores" 4
        (count d1 "engine" "cache_stores");
      Alcotest.(check int) "round 1: no hits" 0 (count d1 "engine" "cache_hits");
      Alcotest.(check int) "round 2: four hits" 4
        (count d2 "engine" "cache_hits");
      Alcotest.(check int) "round 2: no stores" 0
        (count d2 "engine" "cache_stores");
      Alcotest.(check (list string)) "warm = cold" cold warm)

(* The checkpoint each kind writes after a full scan, byte for byte:
   field names, order and serialisation are a resume format, so any
   drift shows here as a changed digest. *)
let test_kinds_checkpoint_pins () =
  let g = kinds_ring () in
  let pins =
    [
      ("k2 grid", "c86379da7e5e95054ee44e5e95421650");
      ("k2 exact", "c748af737c9b0f4fa3f2322fe43c6c52");
      ("k3 grid", "e92ad5100ef424126e4b31f4a6fbb8e2");
      ("k3 exact", "03fb0511a3cdaebc664cbeb0ca68d64c");
    ]
  in
  List.iter
    (fun (name, ctx, _, _) ->
      let path = Filename.temp_file "engine_kind" ".ckpt" in
      Sys.remove path;
      let p = Incentive.best_attack_within ~ctx ~checkpoint:path g in
      Alcotest.(check bool) (name ^ ": complete") true
        (p.Incentive.status = Ok ());
      let md5 = Digest.to_hex (Digest.file path) in
      Sys.remove path;
      Alcotest.(check string) (name ^ ": checkpoint MD5")
        (List.assoc name pins) md5)
    attack_kinds

(* ------------------------------------------------------------------ *)
(* Parallel sweep inside best_attack_within (+ kill/resume)            *)
(* ------------------------------------------------------------------ *)

(* ctx.domains parallelises each vertex's sweep inside best_split; the
   result — and therefore the checkpoint stream — must be bit-identical
   to the sequential scan. *)
let test_within_parallel_identical () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let seq =
    Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g
  in
  let par =
    Incentive.best_attack_within
      ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ~domains:4 ()) g
  in
  Alcotest.(check int) "same completed" seq.Incentive.completed
    par.Incentive.completed;
  match (seq.Incentive.best, par.Incentive.best) with
  | Some a, Some b -> check_attack "parallel sweep = sequential" a b
  | _ -> Alcotest.fail "scan found no attack"

let test_within_parallel_kill_resume () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let path = Filename.temp_file "engine_within" ".ckpt" in
  Sys.remove path;
  let ctx = Engine.Ctx.make ~grid:8 ~refine:1 ~domains:4 () in
  (* phase 1: a budget trip mid-scan plays the part of a kill between
     vertices; the snapshot on disk is the survivor *)
  let p1 =
    Incentive.best_attack_within ~ctx ~budget:(Budget.create ~steps:400 ())
      ~checkpoint:path g
  in
  Alcotest.(check bool) "interrupted mid-scan" true
    (p1.Incentive.completed < p1.Incentive.total);
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path);
  (* phase 2: resume with fresh domains; the combined result must equal
     the uninterrupted (sequential-equivalent) search exactly *)
  let p2 = Incentive.best_attack_within ~ctx ~checkpoint:path ~resume:true g in
  Alcotest.(check bool) "complete" true (p2.Incentive.status = Ok ());
  Alcotest.(check int) "all vertices" p2.Incentive.total
    p2.Incentive.completed;
  let a =
    Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g
  in
  (match p2.Incentive.best with
  | Some b -> check_attack "kill/resume with parallel sweep" a b
  | None -> Alcotest.fail "no best after resume");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* run_batch                                                           *)
(* ------------------------------------------------------------------ *)

let batch_rings () =
  [|
    Generators.ring_of_ints [| 3; 1; 2; 5 |];
    Generators.ring_of_ints [| 7; 2; 9; 4; 3 |];
    Generators.ring_of_ints [| 3; 1; 2; 5 |] (* duplicate: cache fodder *);
  |]

let test_run_batch () =
  let items = batch_rings () in
  let ctx =
    Engine.Ctx.make ~domains:2 ~cache:(Engine.Cache.create ~capacity:64 ()) ()
  in
  let batched =
    Engine.run_batch ~ctx ~f:(fun ctx g -> Decompose.compute ~ctx g) items
  in
  let direct = Array.map (fun g -> Decompose.compute g) items in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "item %d matches direct" i)
        true
        (Decompose.equal d direct.(i)))
    batched

let test_run_batch_r_isolates_faults () =
  let good = Generators.ring_of_ints [| 3; 1; 2; 5 |] in
  let items = [| `Good; `Bad |] in
  let rs =
    Engine.run_batch_r
      ~f:(fun ctx item ->
        match item with
        | `Good -> Decompose.compute ~ctx good
        | `Bad -> E.error (E.Invalid_input "intentional batch fault"))
      items
  in
  (match rs.(0) with
  | Ok d ->
      Alcotest.(check bool) "good item computed" true
        (Decompose.equal d (Decompose.compute good))
  | Error e -> Alcotest.fail ("good item failed: " ^ E.to_string e));
  match rs.(1) with
  | Error (E.Invalid_input _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
  | Ok _ -> Alcotest.fail "bad item did not fail"

let () =
  Alcotest.run "engine"
    [
      ( "ctx",
        [
          Alcotest.test_case "defaults pinned (grid 32, refine 3)" `Quick
            test_ctx_defaults;
          Alcotest.test_case "builders" `Quick test_ctx_builders;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits + misses = lookups" `Quick
            test_cache_identities;
          Alcotest.test_case "bounded, deterministic FIFO eviction" `Quick
            test_cache_bounded_fifo;
          Alcotest.test_case "capacity >= 1 enforced" `Quick
            test_cache_rejects_bad_capacity;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "solver_names + Auto routing" `Quick
            test_solver_routing;
          Alcotest.test_case "solver name round-trips" `Quick
            test_solver_names;
        ] );
      ( "cross-search cache",
        [
          Alcotest.test_case "warm best_attack: >=2x fewer computes" `Quick
            test_warm_cache_best_attack;
          Alcotest.test_case "cold best_attack: one lookup" `Quick
            test_cold_one_lookup;
          Alcotest.test_case "warm best_attack: one hit, no computes" `Quick
            test_warm_one_hit;
          Alcotest.test_case "exact with no cache: no lookups" `Quick
            test_exact_no_cache_no_lookups;
          Alcotest.test_case "request keys separate result kinds" `Quick
            test_request_keys_by_kind;
        ] );
      ( "attack kinds",
        [
          Alcotest.test_case "scan = fan-out, four kinds" `Quick
            test_kinds_scan_equals_fanout;
          Alcotest.test_case "one cache: four stores, then four hits" `Quick
            test_kinds_share_one_cache;
          Alcotest.test_case "checkpoint MD5 per kind" `Quick
            test_kinds_checkpoint_pins;
        ] );
      ( "parallel sweep",
        [
          Alcotest.test_case "within: domains > 1 bit-identical" `Quick
            test_within_parallel_identical;
          Alcotest.test_case "within: kill/resume under domains > 1" `Quick
            test_within_parallel_kill_resume;
        ] );
      ( "batch",
        [
          Alcotest.test_case "run_batch = direct map" `Quick test_run_batch;
          Alcotest.test_case "run_batch_r isolates faults" `Quick
            test_run_batch_r_isolates_faults;
        ] );
    ]
