(* Fault-tolerance tests: the error taxonomy, cooperative budgets,
   checkpoint/resume determinism, and crash-safe persistence.

   The kill-and-resume tests simulate the kill in-process (stop_after /
   a tripping budget) and then resume from the on-disk snapshot; the
   invariant under test is that the interrupted-and-resumed run is
   byte-identical in output and exactly equal in (rational) results to
   an uninterrupted run. *)

module Q = Rational
module E = Ringshare_error

let tmp suffix = Filename.temp_file "ringshare-resilience" suffix

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let buffer_fmt () =
  let buf = Buffer.create 1024 in
  (buf, Format.formatter_of_buffer buf)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.create ~steps:10 () in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  for _ = 1 to 10 do
    Budget.tick b
  done;
  Alcotest.(check bool) "not yet" false (Budget.exhausted b);
  (match Budget.tick b with
  | () -> Alcotest.fail "11th tick should trip"
  | exception Budget.Exhausted { steps; _ } ->
      Alcotest.(check int) "steps at trip" 11 steps);
  (* sticky: every later tick, and even a zero-cost check, raises *)
  (match Budget.check b with
  | () -> Alcotest.fail "check after trip should raise"
  | exception Budget.Exhausted _ -> ());
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b)

let test_budget_unlimited () =
  Alcotest.(check bool) "unlimited" false (Budget.is_limited Budget.unlimited);
  for _ = 1 to 100_000 do
    Budget.tick ~cost:1000 Budget.unlimited
  done;
  Budget.check Budget.unlimited

let test_budget_deadline () =
  let b = Budget.create ~seconds:0.02 () in
  Budget.tick b;
  Unix.sleepf 0.05;
  match Budget.tick b with
  | () -> Alcotest.fail "deadline should have passed"
  | exception Budget.Exhausted { elapsed; _ } ->
      Alcotest.(check bool) "elapsed measured" true (elapsed >= 0.02)

(* ------------------------------------------------------------------ *)
(* Taxonomy and the capture boundary                                   *)
(* ------------------------------------------------------------------ *)

let test_capture_conversions () =
  (match E.capture (fun () -> invalid_arg "bad vertex") with
  | Error (E.Invalid_input "bad vertex") -> ()
  | _ -> Alcotest.fail "Invalid_argument not converted");
  (match E.capture (fun () -> failwith "boom") with
  | Error (E.Invalid_input "boom") -> ()
  | _ -> Alcotest.fail "Failure not converted");
  (match
     E.capture (fun () -> raise (Budget.Exhausted { steps = 7; elapsed = 0.5 }))
   with
  | Error (E.Budget_exhausted { steps = 7; _ }) -> ()
  | _ -> Alcotest.fail "Exhausted not converted");
  (match E.capture (fun () -> E.error (E.Infeasible_dp "dp")) with
  | Error (E.Infeasible_dp "dp") -> ()
  | _ -> Alcotest.fail "Error not unwrapped");
  match E.capture (fun () -> 42) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "Ok path broken"

let test_exit_codes () =
  Alcotest.(check int) "parse" 2
    (E.exit_code (E.Parse_error { file = None; line = 3; msg = "m" }));
  Alcotest.(check int) "input" 2 (E.exit_code (E.Invalid_input "m"));
  Alcotest.(check int) "dp" 3 (E.exit_code (E.Infeasible_dp "m"));
  Alcotest.(check int) "oracle" 3 (E.exit_code (E.Oracle_inconsistent "m"));
  Alcotest.(check int) "cert" 3 (E.exit_code (E.Certificate_mismatch "m"));
  Alcotest.(check int) "budget" 4
    (E.exit_code (E.Budget_exhausted { steps = 1; elapsed = 0.0 }));
  Alcotest.(check int) "io" 5
    (E.exit_code (E.Io_error { file = "f"; msg = "m" }))

(* ------------------------------------------------------------------ *)
(* Budgets threaded through the solvers                                *)
(* ------------------------------------------------------------------ *)

let test_decompose_budget () =
  let g = Instances.ring ~seed:3 ~n:24 (Weights.Uniform (1, 100)) in
  (* tiny budget: must trip inside the solve, surfaced as a result *)
  (match Decompose.compute_r ~budget:(Budget.create ~steps:5 ()) g with
  | Error (E.Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "5-step budget cannot finish n=24"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e));
  (* generous budget: identical decomposition to the unbudgeted run *)
  match Decompose.compute_r ~budget:(Budget.create ~steps:1_000_000 ()) g with
  | Ok d ->
      Alcotest.(check bool) "same decomposition" true
        (Decompose.equal d (Decompose.compute g))
  | Error e -> Alcotest.fail (E.to_string e)

let test_all_solvers_respect_budget () =
  let g = Instances.ring ~seed:5 ~n:12 (Weights.Uniform (1, 50)) in
  List.iter
    (fun solver ->
      match
        E.capture (fun () ->
            Decompose.compute ~ctx:(Engine.Ctx.make ~solver ()) ~budget:(Budget.create ~steps:3 ()) g)
      with
      | Error (E.Budget_exhausted _) -> ()
      | Ok _ -> Alcotest.fail "3-step budget cannot finish"
      | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e))
    [ Decompose.FastChain; Decompose.Flow; Decompose.Brute ]

let test_prd_budget () =
  let g = Generators.ring_of_ints [| 5; 1; 3; 1; 2 |] in
  (match E.capture (fun () -> Prd.run ~budget:(Budget.create ~steps:20 ()) ~iters:1000 g) with
  | Error (E.Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "PRD ignored its budget"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e));
  (* unbudgeted and generously-budgeted runs agree *)
  let a = Prd.utilities (Prd.run ~iters:50 g) in
  let b =
    Prd.utilities (Prd.run ~budget:(Budget.create ~steps:1_000_000 ()) ~iters:50 g)
  in
  Alcotest.(check bool) "same trajectory" true (a = b)

let test_best_split_budget () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  match
    E.capture (fun () ->
        Incentive.best_split ~budget:(Budget.create ~steps:30 ()) g ~v:0)
  with
  | Error (E.Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "attack search ignored its budget"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)

(* ------------------------------------------------------------------ *)
(* Checkpoint files                                                    *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = tmp ".ckpt" in
  let fields =
    [ ("seed", "42"); ("rng", "-123456789"); ("done", "7"); ("flag", "true") ]
  in
  Checkpoint.save ~path ~kind:"demo" fields;
  (match Checkpoint.load ~path ~kind:"demo" with
  | Ok fs ->
      Alcotest.(check (list (pair string string))) "fields preserved" fields fs;
      Alcotest.(check int) "int" 42 (Checkpoint.int_field fs "seed");
      Alcotest.(check int64) "int64" (-123456789L) (Checkpoint.int64_field fs "rng");
      Alcotest.(check bool) "bool" true (Checkpoint.bool_field fs "flag")
  | Error e -> Alcotest.fail (E.to_string e));
  (match Checkpoint.load ~path ~kind:"other" with
  | Error (E.Parse_error { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "wrong kind accepted");
  Sys.remove path

let test_checkpoint_truncation () =
  let path = tmp ".ckpt" in
  Checkpoint.save ~path ~kind:"demo" [ ("a", "1"); ("b", "2"); ("c", "3") ];
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* cut the file off before the end marker: must be rejected *)
  let cut =
    String.concat "\n"
      (List.filteri
         (fun i _ -> i < 4)
         (String.split_on_char '\n' full))
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc cut);
  (match Checkpoint.load ~path ~kind:"demo" with
  | Error (E.Parse_error { msg; _ }) ->
      Alcotest.(check bool) "mentions truncation" true (contains msg "truncated")
  | _ -> Alcotest.fail "truncated checkpoint accepted");
  (* tampered end count: also rejected *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (cut ^ "\nend 17\n"));
  (match Checkpoint.load ~path ~kind:"demo" with
  | Error (E.Parse_error _) -> ()
  | _ -> Alcotest.fail "bad end count accepted");
  Sys.remove path

let test_checkpoint_missing_field () =
  let path = tmp ".ckpt" in
  Checkpoint.save ~path ~kind:"demo" [ ("a", "1") ];
  (match Checkpoint.load ~path ~kind:"demo" with
  | Ok fs -> (
      match Checkpoint.int_field fs "nope" with
      | _ -> Alcotest.fail "missing field returned"
      | exception E.Error (E.Invalid_input _) -> ())
  | Error e -> Alcotest.fail (E.to_string e));
  Sys.remove path

let test_checkpoint_atomic_save () =
  let path = tmp ".ckpt" in
  Checkpoint.save ~path ~kind:"demo" [ ("gen", "1") ];
  Checkpoint.save ~path ~kind:"demo" [ ("gen", "2") ];
  Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
  (match Checkpoint.load ~path ~kind:"demo" with
  | Ok fs -> Alcotest.(check int) "latest generation" 2 (Checkpoint.int_field fs "gen")
  | Error e -> Alcotest.fail (E.to_string e));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Serial: crash-safe save, truncation rejection                       *)
(* ------------------------------------------------------------------ *)

let test_serial_truncation_rejected () =
  let g = Generators.fig1 () in
  let path = tmp ".graph" in
  Serial.save path g;
  (match Serial.load_r path with
  | Ok g' -> Alcotest.(check int) "roundtrip" (Graph.n g) (Graph.n g')
  | Error e -> Alcotest.fail (E.to_string e));
  Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
  (* drop the last two lines (the footer and an edge): structured reject *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' full in
  let cut = List.filteri (fun i _ -> i < List.length lines - 3) lines in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" cut));
  (match Serial.load_r path with
  | Error (E.Parse_error { file = Some f; _ }) ->
      Alcotest.(check string) "names the file" path f
  | Ok _ -> Alcotest.fail "truncated instance accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e));
  Sys.remove path

let test_serial_error_names_line () =
  match Serial.of_string_r "ringshare-graph v1\nn 3\nw 9 1\n" with
  | Error (E.Parse_error { line = 3; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
  | Ok _ -> Alcotest.fail "out-of-range vertex accepted"

(* ------------------------------------------------------------------ *)
(* best_attack_within: partial results, checkpoint, resume             *)
(* ------------------------------------------------------------------ *)

let attack_ring () = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |]

let test_best_attack_within_complete () =
  let g = attack_ring () in
  let p = Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g in
  let a = Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g in
  Alcotest.(check bool) "status ok" true (p.Incentive.status = Ok ());
  Alcotest.(check int) "all vertices" p.Incentive.total p.Incentive.completed;
  match p.Incentive.best with
  | Some b ->
      Alcotest.(check int) "same vertex" a.Incentive.v b.Incentive.v;
      Helpers.check_q "same ratio" a.Incentive.ratio b.Incentive.ratio
  | None -> Alcotest.fail "no best found"

let test_best_attack_within_budget_partial () =
  let g = attack_ring () in
  let p =
    Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ())
      ~budget:(Budget.create ~steps:400 ()) g
  in
  (match p.Incentive.status with
  | Error (E.Budget_exhausted _) -> ()
  | Ok () -> Alcotest.fail "400-step budget cannot scan 5 vertices"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e));
  Alcotest.(check bool) "partial" true (p.Incentive.completed < p.Incentive.total)

let test_best_attack_within_resume () =
  let g = attack_ring () in
  let path = tmp ".ckpt" in
  Sys.remove path;
  (* phase 1: trip a budget partway through the scan *)
  let p1 =
    Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) ~checkpoint:path
      ~budget:(Budget.create ~steps:400 ()) g
  in
  Alcotest.(check bool) "interrupted" true (p1.Incentive.completed < p1.Incentive.total);
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path);
  (* phase 2: resume with no budget; the combined scan must equal the
     uninterrupted one exactly *)
  let p2 =
    Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) ~checkpoint:path
      ~resume:true g
  in
  Alcotest.(check bool) "complete" true (p2.Incentive.status = Ok ());
  Alcotest.(check int) "all vertices" p2.Incentive.total p2.Incentive.completed;
  let a = Incentive.best_attack ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g in
  (match p2.Incentive.best with
  | Some b ->
      Alcotest.(check int) "same vertex" a.Incentive.v b.Incentive.v;
      Helpers.check_q "same ratio" a.Incentive.ratio b.Incentive.ratio;
      Helpers.check_q "same split" a.Incentive.w1 b.Incentive.w1
  | None -> Alcotest.fail "no best after resume");
  Sys.remove path

let test_best_attack_within_exact_resume () =
  (* kill-and-resume pin for the exact sweep: the certified optimum of
     an interrupted-and-resumed scan is bit-identical (Qx fields
     included) to the uninterrupted one *)
  let g = attack_ring () in
  let exact_ctx = Engine.Ctx.make ~sweep:Engine.Exact () in
  let p_ref = Incentive.best_attack_within ~ctx:exact_ctx g in
  Alcotest.(check bool) "reference complete" true
    (p_ref.Incentive.status = Ok ());
  let path = tmp ".ckpt" in
  Sys.remove path;
  let p1 =
    Incentive.best_attack_within ~ctx:exact_ctx ~checkpoint:path
      ~budget:(Budget.create ~steps:150 ()) g
  in
  Alcotest.(check bool) "interrupted" true
    (p1.Incentive.completed < p1.Incentive.total);
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path);
  let p2 =
    Incentive.best_attack_within ~ctx:exact_ctx ~checkpoint:path ~resume:true g
  in
  Alcotest.(check bool) "complete" true (p2.Incentive.status = Ok ());
  (match (p_ref.Incentive.best_exact, p2.Incentive.best_exact) with
  | Some a, Some b ->
      Alcotest.(check int) "same vertex" a.Incentive.witness.Incentive.v
        b.Incentive.witness.Incentive.v;
      Helpers.check_q "same witness split" a.Incentive.witness.Incentive.w1
        b.Incentive.witness.Incentive.w1;
      Alcotest.(check bool) "same exact split" true
        (Qx.compare a.Incentive.w1_exact b.Incentive.w1_exact = 0);
      Alcotest.(check bool) "same exact utility" true
        (Qx.compare a.Incentive.utility_exact b.Incentive.utility_exact = 0);
      Alcotest.(check bool) "same exact ratio" true
        (Qx.compare a.Incentive.ratio_exact b.Incentive.ratio_exact = 0);
      Alcotest.(check int) "same pieces" a.Incentive.pieces b.Incentive.pieces;
      Alcotest.(check int) "same events" a.Incentive.events b.Incentive.events
  | _ -> Alcotest.fail "exact result missing before or after resume");
  Sys.remove path

let test_best_attack_within_rejects_sweep_mismatch () =
  (* a checkpoint written under one sweep policy cannot seed the other *)
  let g = attack_ring () in
  let path = tmp ".ckpt" in
  Sys.remove path;
  let _ =
    Incentive.best_attack_within
      ~ctx:(Engine.Ctx.make ~sweep:Engine.Exact ())
      ~checkpoint:path g
  in
  (match
     E.capture (fun () ->
         Incentive.best_attack_within
           ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ())
           ~checkpoint:path ~resume:true g)
   with
  | Error (E.Invalid_input m) ->
      Alcotest.(check bool) "names both policies" true
        (contains m "exact" && contains m "grid")
  | _ -> Alcotest.fail "exact checkpoint accepted by grid resume");
  Sys.remove path

let test_best_attack_within_kway_resume () =
  (* k-way kill-and-resume: the weight vector rides in the checkpoint,
     so the resumed best_k is bit-identical to the uninterrupted scan *)
  let g = attack_ring () in
  let kctx = Engine.Ctx.make ~grid:6 ~refine:1 ~identities:3 () in
  let p_ref = Incentive.best_attack_within ~ctx:kctx g in
  Alcotest.(check bool) "reference complete" true
    (p_ref.Incentive.status = Ok ());
  let path = tmp ".ckpt" in
  Sys.remove path;
  let p1 =
    Incentive.best_attack_within ~ctx:kctx ~checkpoint:path
      ~budget:(Budget.create ~steps:400 ()) g
  in
  Alcotest.(check bool) "interrupted" true
    (p1.Incentive.completed < p1.Incentive.total);
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path);
  let p2 =
    Incentive.best_attack_within ~ctx:kctx ~checkpoint:path ~resume:true g
  in
  Alcotest.(check bool) "complete" true (p2.Incentive.status = Ok ());
  (match (p_ref.Incentive.best_k, p2.Incentive.best_k) with
  | Some a, Some b ->
      Alcotest.(check int) "same vertex" a.Incentive.v b.Incentive.v;
      Alcotest.(check bool) "same weight vector" true
        (Array.length a.Incentive.weights = Array.length b.Incentive.weights
        && Array.for_all2 Rational.equal a.Incentive.weights
             b.Incentive.weights);
      Helpers.check_q "same utility" a.Incentive.utility b.Incentive.utility;
      Helpers.check_q "same honest" a.Incentive.honest b.Incentive.honest;
      Helpers.check_q "same ratio" a.Incentive.ratio b.Incentive.ratio
  | _ -> Alcotest.fail "k-way result missing before or after resume");
  Sys.remove path

let test_best_attack_within_rejects_identities_mismatch () =
  (* a checkpoint written under one identity count cannot seed another;
     the error names both *)
  let g = attack_ring () in
  let path = tmp ".ckpt" in
  Sys.remove path;
  let _ =
    Incentive.best_attack_within
      ~ctx:(Engine.Ctx.make ~grid:6 ~refine:1 ~identities:3 ())
      ~checkpoint:path g
  in
  (match
     E.capture (fun () ->
         Incentive.best_attack_within
           ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ())
           ~checkpoint:path ~resume:true g)
   with
  | Error (E.Invalid_input m) ->
      Alcotest.(check bool) "names both identity counts" true
        (contains m "identities" && contains m "3" && contains m "2")
  | _ -> Alcotest.fail "cross-k checkpoint accepted");
  Sys.remove path

let test_best_attack_within_rejects_wrong_graph () =
  let path = tmp ".ckpt" in
  Sys.remove path;
  let _ =
    Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) ~checkpoint:path
      (attack_ring ())
  in
  (match
     E.capture (fun () ->
         Incentive.best_attack_within ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) ~checkpoint:path
           ~resume:true
           (Generators.ring_of_ints [| 1; 2; 3; 4 |]))
   with
  | Error (E.Invalid_input _) -> ()
  | _ -> Alcotest.fail "checkpoint for another graph accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Hunt: kill-and-resume determinism                                   *)
(* ------------------------------------------------------------------ *)

let hunt_seed = 42
let hunt_trials = 6

let test_hunt_kill_resume_determinism () =
  (* uninterrupted reference run *)
  let buf_ref, fmt_ref = buffer_fmt () in
  let r_ref =
    Experiments.hunt ~seed:hunt_seed ~trials:hunt_trials fmt_ref
  in
  Format.pp_print_flush fmt_ref ();
  Alcotest.(check bool) "reference complete" true
    (r_ref.Experiments.hunt_status = Ok ());
  (* interrupted run: stop after 2 trials (the in-process kill) ... *)
  let path = tmp ".ckpt" in
  Sys.remove path;
  let buf1, fmt1 = buffer_fmt () in
  let r1 =
    Experiments.hunt ~checkpoint:path ~stop_after:2 ~seed:hunt_seed
      ~trials:hunt_trials fmt1
  in
  Format.pp_print_flush fmt1 ();
  Alcotest.(check int) "stopped early" 2 r1.Experiments.trials_done;
  (* ... then resume from the snapshot *)
  let buf2, fmt2 = buffer_fmt () in
  let r2 =
    Experiments.hunt ~checkpoint:path ~resume:true ~seed:hunt_seed
      ~trials:hunt_trials fmt2
  in
  Format.pp_print_flush fmt2 ();
  (* byte-identical output and exactly equal results *)
  Alcotest.(check string) "output identical"
    (Buffer.contents buf_ref)
    (Buffer.contents buf1 ^ Buffer.contents buf2);
  Helpers.check_q "same best ratio" r_ref.Experiments.best_ratio
    r2.Experiments.best_ratio;
  Alcotest.(check int) "same best trial" r_ref.Experiments.best_trial
    r2.Experiments.best_trial;
  Alcotest.(check int) "same best vertex" r_ref.Experiments.best_v
    r2.Experiments.best_v;
  Alcotest.(check bool) "same best weights" true
    (Array.for_all2 Q.equal r_ref.Experiments.best_weights
       r2.Experiments.best_weights);
  Alcotest.(check int) "all trials done" hunt_trials r2.Experiments.trials_done;
  Sys.remove path

let test_hunt_budget_interrupt_then_resume () =
  let r_ref = Experiments.hunt ~seed:hunt_seed ~trials:hunt_trials null_fmt in
  let path = tmp ".ckpt" in
  Sys.remove path;
  let r1 =
    Experiments.hunt ~checkpoint:path
      ~budget:(Budget.create ~steps:4_000 ())
      ~seed:hunt_seed ~trials:hunt_trials null_fmt
  in
  (match r1.Experiments.hunt_status with
  | Error (E.Budget_exhausted _) -> ()
  | Ok () -> Alcotest.fail "4k-step budget cannot finish 6 trials"
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e));
  Alcotest.(check bool) "made some progress" true
    (r1.Experiments.trials_done >= 1);
  let r2 =
    Experiments.hunt ~checkpoint:path ~resume:true ~seed:hunt_seed
      ~trials:hunt_trials null_fmt
  in
  Alcotest.(check bool) "complete after resume" true
    (r2.Experiments.hunt_status = Ok ());
  Helpers.check_q "same best ratio" r_ref.Experiments.best_ratio
    r2.Experiments.best_ratio;
  Alcotest.(check int) "same best trial" r_ref.Experiments.best_trial
    r2.Experiments.best_trial;
  Sys.remove path

let test_hunt_rejects_mismatched_checkpoint () =
  let path = tmp ".ckpt" in
  Sys.remove path;
  let _ =
    Experiments.hunt ~checkpoint:path ~stop_after:1 ~seed:1 ~trials:4 null_fmt
  in
  (match
     E.capture (fun () ->
         Experiments.hunt ~checkpoint:path ~resume:true ~seed:2 ~trials:4
           null_fmt)
   with
  | Error (E.Invalid_input _) -> ()
  | _ -> Alcotest.fail "checkpoint for another seed accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* E2 sweep: family-boundary checkpoints                               *)
(* ------------------------------------------------------------------ *)

let test_e2_resume_equivalence () =
  let trials = 2 in
  let o_ref = Experiments.run_e2_theorem8_sweep ~trials null_fmt in
  let path = tmp ".ckpt" in
  Sys.remove path;
  let o1 =
    Experiments.run_e2_theorem8_sweep ~trials ~checkpoint:path ~stop_after:2
      null_fmt
  in
  Alcotest.(check bool) "interrupted marked not-ok" false o1.Experiments.ok;
  let o2 =
    Experiments.run_e2_theorem8_sweep ~trials ~checkpoint:path ~resume:true
      null_fmt
  in
  Alcotest.(check bool) "same verdict" o_ref.Experiments.ok o2.Experiments.ok;
  Alcotest.(check string) "same detail" o_ref.Experiments.detail
    o2.Experiments.detail;
  Sys.remove path

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "step budget trips and sticks" `Quick test_budget_steps;
          Alcotest.test_case "unlimited never trips" `Quick test_budget_unlimited;
          Alcotest.test_case "wall-clock deadline" `Quick test_budget_deadline;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "capture conversions" `Quick test_capture_conversions;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "solver budgets",
        [
          Alcotest.test_case "decompose" `Quick test_decompose_budget;
          Alcotest.test_case "every built-in solver" `Quick test_all_solvers_respect_budget;
          Alcotest.test_case "dynamics" `Quick test_prd_budget;
          Alcotest.test_case "attack search" `Quick test_best_split_budget;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip + typed fields" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick test_checkpoint_truncation;
          Alcotest.test_case "missing field" `Quick test_checkpoint_missing_field;
          Alcotest.test_case "atomic replacement" `Quick test_checkpoint_atomic_save;
        ] );
      ( "serial",
        [
          Alcotest.test_case "truncated file rejected" `Quick test_serial_truncation_rejected;
          Alcotest.test_case "error names the line" `Quick test_serial_error_names_line;
        ] );
      ( "best_attack_within",
        [
          Alcotest.test_case "complete scan matches best_attack" `Quick
            test_best_attack_within_complete;
          Alcotest.test_case "budget yields partial results" `Quick
            test_best_attack_within_budget_partial;
          Alcotest.test_case "interrupt + resume = uninterrupted" `Quick
            test_best_attack_within_resume;
          Alcotest.test_case "exact sweep: interrupt + resume bit-identical"
            `Quick test_best_attack_within_exact_resume;
          Alcotest.test_case "sweep-mismatched checkpoint rejected" `Quick
            test_best_attack_within_rejects_sweep_mismatch;
          Alcotest.test_case "k-way: interrupt + resume bit-identical" `Quick
            test_best_attack_within_kway_resume;
          Alcotest.test_case "cross-k checkpoint rejected" `Quick
            test_best_attack_within_rejects_identities_mismatch;
          Alcotest.test_case "wrong-graph checkpoint rejected" `Quick
            test_best_attack_within_rejects_wrong_graph;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "kill + resume is byte-identical" `Quick
            test_hunt_kill_resume_determinism;
          Alcotest.test_case "budget interrupt + resume" `Quick
            test_hunt_budget_interrupt_then_resume;
          Alcotest.test_case "mismatched checkpoint rejected" `Quick
            test_hunt_rejects_mismatched_checkpoint;
        ] );
      ( "e2 sweep",
        [
          Alcotest.test_case "checkpoint resume equivalence" `Slow
            test_e2_resume_equivalence;
        ] );
    ]
