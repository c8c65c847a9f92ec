(* Observability layer: counter consistency against the instrumented
   solvers, and the obs substrate's own snapshot/diff/JSON contract.

   The load-bearing properties:
   - with metrics disabled nothing is recorded (zero-cost path);
   - enabling metrics changes no computed value bit-for-bit;
   - the counters satisfy their algebraic identities (memo hits +
     misses = lookups; Dinic augmentations within the V*E bound). *)

module Q = Rational

let e1_ring () = Generators.ring_of_ints [| 3; 3; 2; 1; 1; 1 |]

(* Run [f] with the given obs switches, restoring the disabled state
   afterwards whatever happens; every test starts from zeroed cells. *)
let with_obs ?(metrics = false) ?(spans = false) f =
  Obs.reset ();
  Obs.set_metrics metrics;
  Obs.set_spans spans;
  Fun.protect f ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.set_spans false)

let count s sub name = Obs.counter_value s ~subsystem:sub name

let gauge s sub name =
  match
    List.find_opt
      (fun (e : Obs.entry) ->
        String.equal e.subsystem sub && String.equal e.name name)
      (Obs.gauges s)
  with
  | Some e -> e.value
  | None -> 0

(* --- zero-cost disabled path ------------------------------------- *)

let test_disabled_zero () =
  with_obs ~metrics:false (fun () ->
      let g = e1_ring () in
      ignore (Decompose.compute ~ctx:(Engine.Ctx.make ~solver:Decompose.Flow ()) g);
      ignore (Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:6 ~refine:1 ()) g ~v:0);
      let s = Obs.snapshot () in
      List.iter
        (fun (e : Obs.entry) ->
          if e.value <> 0 then
            Alcotest.failf "counter %s/%s = %d with metrics disabled"
              e.subsystem e.name e.value)
        (Obs.counters s @ Obs.gauges s);
      Alcotest.(check (list reject)) "no spans recorded" []
        (List.map (fun (r : Obs.Span.record) -> r) (Obs.Span.records ())))

(* --- memo identity: hits + misses = lookups ----------------------- *)

let test_memo_identity () =
  with_obs ~metrics:true (fun () ->
      let g = e1_ring () in
      ignore (Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:2 ()) g ~v:0);
      let s = Obs.snapshot () in
      let lookups = count s "incentive" "memo_lookups" in
      let hits = count s "incentive" "memo_hits" in
      let misses = count s "incentive" "memo_misses" in
      Alcotest.(check bool) "lookups happened" true (lookups > 0);
      Alcotest.(check int) "hits + misses = lookups" lookups (hits + misses);
      (* every cached point was looked up at least once, and the zoom
         rounds revisit the previous best, so hits are also non-zero *)
      Alcotest.(check bool) "some hits" true (hits > 0);
      let pts = count s "incentive" "sweep_points" in
      let dedup = count s "incentive" "sweep_points_deduped" in
      Alcotest.(check bool) "dedup <= raw sweep points" true (dedup <= pts);
      Alcotest.(check bool) "deduped points exist" true (dedup > 0))

(* At k = 3 the grid search runs through the same memo and the same
   counters, so the identity holds there too. *)
let test_kway_memo_identity () =
  with_obs ~metrics:true (fun () ->
      let g = e1_ring () in
      ignore
        (Incentive.best_splitk
           ~ctx:(Engine.Ctx.make ~grid:6 ~refine:2 ~identities:3 ())
           g ~v:0);
      let s = Obs.snapshot () in
      let lookups = count s "incentive" "memo_lookups" in
      let hits = count s "incentive" "memo_hits" in
      let misses = count s "incentive" "memo_misses" in
      Alcotest.(check bool) "k = 3 lookups happened" true (lookups > 0);
      Alcotest.(check int) "k = 3 hits + misses = lookups" lookups
        (hits + misses);
      (* the zoom rounds revisit the previous best vector *)
      Alcotest.(check bool) "some k = 3 hits" true (hits > 0);
      Alcotest.(check bool) "k = 3 sweep points counted" true
        (count s "incentive" "sweep_points" > 0))

(* --- Dinic: augmenting paths within the V*E bound ----------------- *)

let test_maxflow_bound () =
  with_obs ~metrics:true (fun () ->
      let n = 8 in
      let net = Maxflow.create n in
      let edges =
        [
          (0, 1, 7); (0, 2, 9); (1, 3, 4); (2, 3, 3); (1, 4, 5); (2, 4, 6);
          (3, 5, 4); (4, 5, 2); (3, 6, 3); (4, 6, 8); (5, 7, 9); (6, 7, 6);
        ]
      in
      List.iter
        (fun (src, dst, c) ->
          ignore (Maxflow.add_edge net ~src ~dst ~cap:(Q.of_int c)))
        edges;
      ignore (Maxflow.max_flow net ~source:0 ~sink:(n - 1));
      let s = Obs.snapshot () in
      let e = count s "flow" "edges_added" in
      let paths = count s "flow" "augmenting_paths" in
      let phases = count s "flow" "bfs_phases" in
      Alcotest.(check int) "every add_edge counted" (List.length edges) e;
      Alcotest.(check bool) "at least one augmenting path" true (paths > 0);
      Alcotest.(check bool) "augmenting paths <= V*E" true (paths <= n * e);
      Alcotest.(check bool) "BFS phases <= V" true (phases <= n))

(* --- metrics must not change results ------------------------------ *)

let test_attack_bit_identical () =
  let g = e1_ring () in
  let run () = Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:6 ~refine:1 ()) g in
  let a1 = with_obs ~metrics:false run in
  let a2 = with_obs ~metrics:true ~spans:true run in
  Alcotest.(check int) "same vertex" a1.Incentive.v a2.Incentive.v;
  Helpers.check_q "same w1" a1.Incentive.w1 a2.Incentive.w1;
  Helpers.check_q "same utility" a1.Incentive.utility a2.Incentive.utility;
  Helpers.check_q "same honest" a1.Incentive.honest a2.Incentive.honest;
  Helpers.check_q "same ratio" a1.Incentive.ratio a2.Incentive.ratio

let test_trace_identical () =
  let g = e1_ring () in
  let run () = Trace.to_csv (Trace.compute g ~v:0) in
  let t_off = with_obs ~metrics:false run in
  let t_on = with_obs ~metrics:true ~spans:true run in
  Alcotest.(check string) "identical interval structure" t_off t_on

(* --- span nesting -------------------------------------------------- *)

let test_span_nesting () =
  with_obs ~metrics:true ~spans:true (fun () ->
      ignore (Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:6 ~refine:1 ()) (e1_ring ()));
      let rs = Obs.Span.records () in
      let has p =
        List.exists
          (fun (r : Obs.Span.record) -> String.equal r.path p && r.count > 0)
          rs
      in
      Alcotest.(check bool) "top-level best_attack span" true
        (has "best_attack");
      Alcotest.(check bool) "shared honest decomposition nests" true
        (has "best_attack/decompose");
      Alcotest.(check bool) "split search decompositions nest" true
        (has "best_attack/best_split/decompose"))

(* The exact sweep's spans nest under best_split_exact, down to the
   piece walk and the stage replay's component walk, and turning them
   on changes no certified value. *)
let test_exact_span_nesting () =
  let run () =
    let ctx = Engine.Ctx.make ~sweep:Engine.Exact () in
    let e = Incentive.best_attack_exact ~ctx (e1_ring ()) in
    Printf.sprintf "%s %s %s %d %d"
      (Qx.to_string e.Incentive.w1_exact)
      (Qx.to_string e.Incentive.utility_exact)
      (Qx.to_string e.Incentive.ratio_exact)
      e.Incentive.pieces e.Incentive.events
  in
  let off = with_obs ~metrics:false run in
  with_obs ~metrics:true ~spans:true (fun () ->
      Alcotest.(check string) "same certified attack" off (run ());
      let rs = Obs.Span.records () in
      List.iter
        (fun p ->
          let path = "best_attack_exact/best_split_exact/" ^ p in
          Alcotest.(check bool) path true
            (List.exists
               (fun (r : Obs.Span.record) ->
                 String.equal r.path path && r.count > 0)
               rs))
        [
          "cover";
          "cover/stage_replay";
          "cover/stage_replay/components";
          "cover/stage_replay/dp";
          "merge";
          "point_pieces";
        ])

(* A Parwork task's spans nest under the span that submitted it, on
   whichever domain runs it: the per-vertex fan-out of best_attack_exact
   reports the same span paths, each as often, at domains 1 and 2. *)
let test_worker_spans_nest () =
  let spans domains =
    with_obs ~spans:true (fun () ->
        let ctx = Engine.Ctx.make ~sweep:Engine.Exact ~domains () in
        ignore (Incentive.best_attack_exact ~ctx (e1_ring ()));
        List.map
          (fun (r : Obs.Span.record) -> (r.path, r.count))
          (Obs.Span.records ()))
  in
  let one = spans 1 in
  Alcotest.(check bool) "per-vertex sweeps nest under best_attack_exact" true
    (List.mem_assoc "best_attack_exact/best_split_exact" one);
  Alcotest.(check (list (pair string int))) "same span paths and counts" one
    (spans 2)

(* --- snapshot / diff / registry ----------------------------------- *)

let c_test = Obs.Counter.make ~subsystem:"obs_test" "events"
let g_test = Obs.Gauge.make ~subsystem:"obs_test" "peak"

let test_diff_semantics () =
  with_obs ~metrics:true (fun () ->
      let s0 = Obs.snapshot () in
      Obs.Counter.incr c_test;
      Obs.Counter.add c_test 4;
      let s1 = Obs.snapshot () in
      Alcotest.(check int) "diff subtracts pointwise" 5
        (count (Obs.diff s1 s0) "obs_test" "events");
      Alcotest.(check int) "absent counter reads 0" 0
        (count s1 "no_such" "counter");
      Alcotest.check_raises "counters are monotonic"
        (Invalid_argument "Obs.Counter.add: counters are monotonic") (fun () ->
          Obs.Counter.add c_test (-1)))

let test_gauge_max () =
  with_obs ~metrics:true (fun () ->
      Obs.Gauge.set g_test 3;
      Obs.Gauge.set_max g_test 10;
      Obs.Gauge.set_max g_test 7;
      Alcotest.(check int) "set_max keeps the maximum" 10
        (Obs.Gauge.value g_test))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_json_schema () =
  with_obs ~metrics:true (fun () ->
      Obs.Counter.incr c_test;
      let j = Obs.to_json ~spans:true (Obs.snapshot ()) in
      List.iter
        (fun needle ->
          if not (contains j needle) then
            Alcotest.failf "JSON missing %S in:@.%s" needle j)
        [
          "\"tool\": \"ringshare-obs\"";
          "\"version\": 1";
          "\"counters\": [";
          "\"gauges\": [";
          "\"spans\": [";
          "{ \"subsystem\": \"obs_test\", \"name\": \"events\", \"value\": 1 }";
        ])

(* Schema pin for the GC gauges: the five exact-int cells exist in
   every snapshot (registered at module init), carry plausible values
   after [record_gc], serialise under subsystem "gc", and stay zero
   when metrics are off. *)
let gc_gauge_names =
  [
    "heap_words";
    "top_heap_words";
    "minor_collections";
    "major_collections";
    "compactions";
  ]

let test_record_gc () =
  with_obs ~metrics:false (fun () ->
      Obs.record_gc ();
      List.iter
        (fun name ->
          Alcotest.(check int)
            (name ^ " stays zero when disabled")
            0
            (gauge (Obs.snapshot ()) "gc" name))
        gc_gauge_names);
  with_obs ~metrics:true (fun () ->
      let s0 = Obs.snapshot () in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " registered") true
            (List.exists
               (fun (e : Obs.entry) ->
                 String.equal e.subsystem "gc" && String.equal e.name name)
               (Obs.gauges s0)))
        gc_gauge_names;
      Obs.record_gc ();
      let s = Obs.snapshot () in
      Alcotest.(check bool) "heap_words > 0" true (gauge s "gc" "heap_words" > 0);
      Alcotest.(check bool) "top_heap >= heap" true
        (gauge s "gc" "top_heap_words" >= gauge s "gc" "heap_words");
      Alcotest.(check bool) "minor_collections >= 0" true
        (gauge s "gc" "minor_collections" >= 0);
      let j = Obs.to_json (Obs.snapshot ()) in
      if not (contains j "\"subsystem\": \"gc\", \"name\": \"heap_words\"")
      then Alcotest.failf "JSON missing gc gauge in:@.%s" j)

let test_filter_subsystems () =
  with_obs ~metrics:true (fun () ->
      Obs.Counter.incr c_test;
      let known = Obs.known_subsystems () in
      Alcotest.(check bool) "registry knows obs_test" true
        (List.mem "obs_test" known);
      Alcotest.(check bool) "registry knows flow" true
        (List.mem "flow" known);
      let s = Obs.filter_subsystems [ "obs_test" ] (Obs.snapshot ()) in
      List.iter
        (fun (e : Obs.entry) ->
          Alcotest.(check string) "only obs_test survives the filter"
            "obs_test" e.subsystem)
        (Obs.counters s @ Obs.gauges s);
      Alcotest.(check bool) "filtered snapshot is non-empty" true
        (Obs.counters s <> []))

let () =
  Alcotest.run "obs"
    [
      ( "consistency",
        [
          Alcotest.test_case "disabled: all cells stay zero" `Quick
            test_disabled_zero;
          Alcotest.test_case "memo hits + misses = lookups" `Quick
            test_memo_identity;
          Alcotest.test_case "k-way memo hits + misses = lookups" `Quick
            test_kway_memo_identity;
          Alcotest.test_case "Dinic augmentations within V*E" `Quick
            test_maxflow_bound;
          Alcotest.test_case "best_attack bit-identical under metrics" `Quick
            test_attack_bit_identical;
          Alcotest.test_case "trace intervals identical under metrics" `Quick
            test_trace_identical;
          Alcotest.test_case "span nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "exact sweep span nesting" `Quick
            test_exact_span_nesting;
          Alcotest.test_case "worker spans nest under the submitter" `Quick
            test_worker_spans_nest;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "snapshot diff semantics" `Quick
            test_diff_semantics;
          Alcotest.test_case "gauge set_max" `Quick test_gauge_max;
          Alcotest.test_case "gc gauges" `Quick test_record_gc;
          Alcotest.test_case "JSON schema keys" `Quick test_json_schema;
          Alcotest.test_case "known_subsystems + filter" `Quick
            test_filter_subsystems;
        ] );
    ]
