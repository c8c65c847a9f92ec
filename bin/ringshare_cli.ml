(* ringshare — command-line front end.

   Subcommands:
     decompose  print the bottleneck decomposition, classes and utilities
     allocate   print the BD allocation
     dynamics   run proportional response dynamics and report convergence
     sybil      search the best Sybil attack (one vertex or all)
     curve      sample U_v(x) / alpha_v(x) for a misreporting agent
     breaks     locate decomposition breakpoints for a varying weight
     trace      the full Section III.B interval structure
     certify    build + verify a flow-witness certificate
     general    best m-identity Sybil attack on any network
     batch      map one search over many instance files (shared cache)
     family     the tightness family zeta(k) = 2 - 1/(5k+1)
     audit      per-agent incentive-ratio audit of a network
     hunt       random search for high-incentive-ratio rings
     verify     exact per-piece certificate that zeta_v <= 2
     save       write the instance to a ringshare-graph file *)

open Cmdliner
module Q = Rational

(* ------------------------------------------------------------------ *)
(* Graph construction from command-line options                        *)
(* ------------------------------------------------------------------ *)

let parse_weights s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map Q.of_string |> Array.of_list

(* Instance-spec problems are user errors: report them through Cmdliner
   as a clean one-line message, never an exception backtrace. *)
let graph_of_spec ~ring ~path ~fig1 ~file ~seed ~n ~dist =
  let build f =
    match f () with
    | g -> Ok g
    | exception (Invalid_argument m | Failure m) -> Error m
  in
  match (ring, path, fig1, file) with
  | Some w, None, false, None -> build (fun () -> Generators.ring (parse_weights w))
  | None, Some w, false, None -> build (fun () -> Generators.path (parse_weights w))
  | None, None, true, None -> Ok (Generators.fig1 ())
  | None, None, false, Some f -> (
      match Serial.load_r f with
      | Ok g -> Ok g
      | Error e -> Error (Ringshare_error.to_string e))
  | None, None, false, None -> (
      match dist with
      | "uniform" -> Ok (Instances.ring ~seed ~n (Weights.Uniform (1, 100)))
      | "powerlaw" -> Ok (Instances.ring ~seed ~n (Weights.Powerlaw (1000, 2.0)))
      | "bimodal" -> Ok (Instances.ring ~seed ~n (Weights.Bimodal (1, 100, 0.3)))
      | s ->
          Error
            ("unknown distribution: " ^ s
           ^ " (expected uniform, powerlaw or bimodal)"))
  | _ -> Error "give at most one of --ring, --path, --fig1, --file"

let ring_arg =
  Arg.(value & opt (some string) None
       & info [ "ring" ] ~docv:"W1,W2,..." ~doc:"Ring with the given weights.")

let path_arg =
  Arg.(value & opt (some string) None
       & info [ "path" ] ~docv:"W1,W2,..." ~doc:"Path with the given weights.")

let fig1_arg =
  Arg.(value & flag & info [ "fig1" ] ~doc:"The paper's Fig. 1 example graph.")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file" ] ~docv:"FILE" ~doc:"Load a ringshare-graph instance file.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for generated instances.")

let n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~doc:"Size of generated instances.")

let dist_arg =
  Arg.(value & opt string "uniform"
       & info [ "dist" ] ~doc:"Weight distribution: uniform, powerlaw or bimodal.")

let graph_term =
  let make ring path fig1 file seed n dist =
    graph_of_spec ~ring ~path ~fig1 ~file ~seed ~n ~dist
  in
  Term.term_result'
    Term.(const make $ ring_arg $ path_arg $ fig1_arg $ file_arg $ seed_arg
          $ n_arg $ dist_arg)

let v_arg =
  Arg.(value & opt int 0
       & info [ "agent"; "v" ] ~docv:"V" ~doc:"The agent under study.")

(* ------------------------------------------------------------------ *)
(* Shared execution-context term                                       *)
(*                                                                     *)
(* Every computing subcommand takes the same --solver/--grid/--refine/ *)
(* --domains/--cache and budget flags, folded into one Engine.Ctx.     *)
(* ------------------------------------------------------------------ *)

let solver_arg =
  Arg.(value & opt string "auto"
       & info [ "solver" ] ~docv:"SOLVER"
         ~doc:"Decomposition solver; $(b,auto) picks the cheapest                registered backend that handles the instance.  An unknown                name is a spec error (exit 4).")

let grid_arg =
  Arg.(value & opt (some int) None
       & info [ "grid" ] ~docv:"N"
         ~doc:"Grid resolution of the sampled attack searches and of \
               general's simplex (default 32; hunt uses 12).")

let refine_arg =
  Arg.(value & opt (some int) None
       & info [ "refine" ] ~docv:"N"
         ~doc:"Zoom refinement rounds (default 3; hunt uses 2).")

let sweep_arg =
  Arg.(value & opt string "grid"
       & info [ "sweep" ] ~docv:"SWEEP"
         ~doc:"Attack-search sweep policy: $(b,grid) (historical                grid-with-zoom approximation, honours --grid/--refine) or                $(b,exact) (event-driven breakpoint walk returning the                certified optimum; no resolution knobs).  An unknown name                is a spec error (exit 4).")

let identities_arg =
  Arg.(value & opt int 2
       & info [ "identities" ] ~docv:"K"
         ~doc:"Number of identities the Sybil attacker splits into                (default 2, the paper's setting).  With $(docv) >= 3 the                attack search walks the (K-1)-simplex of weight vectors;                Theorem 8's bound of 2 no longer applies.  K < 2 is a spec                error (exit 4).")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
         ~doc:"Spread independent searches over $(docv) OCaml domains                (results are identical to the sequential run).")

let cache_arg =
  Arg.(value & opt ~vopt:4096 int 0
       & info [ "cache" ] ~docv:"CAP"
         ~doc:"Share results across searches through a bounded cache of \
               $(docv) entries (0 disables; bare --cache means 4096).  An \
               attack search stores one whole result per instance; \
               decompose stores its decomposition.")

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ] ~docv:"SECONDS"
         ~doc:"Stop with partial results after this much wall clock.")

let step_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "step-budget" ] ~docv:"STEPS"
         ~doc:"Stop with partial results after this many solver steps.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECONDS"
         ~doc:"Per-request wall-clock deadline, enforced at budget-tick                granularity.  Unlike --time-budget the clock starts when                each request starts, so $(b,batch) gives every item its own                allowance.  Ignored when --time-budget/--step-budget is set.")

let budget_of ~time_budget ~step_budget =
  match (time_budget, step_budget) with
  | None, None -> Budget.unlimited
  | seconds, steps -> Budget.create ?seconds ?steps ()

(* the registry, not a hard-coded enum, decides which names are legal *)
let solver_of_flag s =
  match String.lowercase_ascii s with
  | "auto" -> Decompose.Auto
  | name when Engine.Registry.find name <> None -> Decompose.Named name
  | name ->
      Format.eprintf "ringshare: unknown solver %S (known: auto, %s)@." name
        (String.concat ", " (Engine.Registry.names ()));
      exit 4

let sweep_of_flag s =
  match Engine.sweep_of_name (String.lowercase_ascii s) with
  | Some sweep -> sweep
  | None ->
      Format.eprintf "ringshare: unknown sweep %S (known: %s)@." s
        (String.concat ", " (Engine.sweep_names ()));
      exit 4

let identities_of_flag k =
  if k < 2 then begin
    Format.eprintf
      "ringshare: --identities %d: a Sybil split needs at least 2 identities@."
      k;
    exit 4
  end;
  k

(* [grid_default]/[refine_default] let a subcommand keep a historical
   resolution (hunt: 12/2) while still honouring explicit flags *)
let ctx_term_with ?grid_default ?refine_default () =
  let make solver sweep identities grid refine domains cache time_budget
      step_budget deadline =
    let solver = solver_of_flag solver in
    let sweep = sweep_of_flag sweep in
    let identities = identities_of_flag identities in
    let grid =
      match grid with
      | Some g -> g
      | None -> Option.value grid_default ~default:Engine.Ctx.default_grid
    in
    let refine =
      match refine with
      | Some r -> r
      | None -> Option.value refine_default ~default:Engine.Ctx.default_refine
    in
    let cache =
      if cache <= 0 then None else Some (Engine.Cache.create ~capacity:cache ())
    in
    let ctx =
      Engine.Ctx.make ~solver ~sweep ~identities ~grid ~refine ?deadline
        ~domains ?cache ()
    in
    let budget = budget_of ~time_budget ~step_budget in
    if Budget.is_limited budget then Engine.Ctx.with_budget budget ctx else ctx
  in
  Term.(const make $ solver_arg $ sweep_arg $ identities_arg $ grid_arg
        $ refine_arg $ domains_arg $ cache_arg $ time_budget_arg
        $ step_budget_arg $ deadline_arg)

let ctx_term = ctx_term_with ()

(* ------------------------------------------------------------------ *)
(* Subcommand bodies                                                   *)
(* ------------------------------------------------------------------ *)

let decompose g ctx dot () =
  let d = Decompose.compute ~ctx g in
  Format.printf "%a@." Graph.pp g;
  Format.printf "bottleneck decomposition:@.%a@." Decompose.pp d;
  let cls = Classes.of_decomposition g d in
  let us = Utility.of_decomposition g d in
  (* one buffer and one write for the whole table: a flushing printf
     per vertex dominated the report at n = 10^6 *)
  let cls_name =
    let name c = Format.asprintf "%a" Classes.pp_cls c in
    let b = name Classes.B and c = name Classes.C and both = name Classes.Both in
    function Classes.B -> b | Classes.C -> c | Classes.Both -> both
  in
  let table = Buffer.create (64 * (Graph.n g + 1)) in
  Buffer.add_string table "vertex  class  alpha      utility\n";
  for v = 0 to Graph.n g - 1 do
    Printf.bprintf table "%-7d %-6s %-10s %s\n" v (cls_name cls.(v))
      (Q.to_string (Decompose.alpha_of d v))
      (Q.to_string us.(v))
  done;
  Format.printf "%s@?" (Buffer.contents table);
  (match Decompose.validate g d with
  | Ok () -> Format.printf "Proposition 3 invariants: OK@."
  | Error m -> Format.printf "Proposition 3 invariants: VIOLATED (%s)@." m);
  match dot with
  | None -> ()
  | Some file ->
      let colour v =
        match cls.(v) with
        | Classes.B -> Some "lightblue"
        | Classes.C -> Some "lightsalmon"
        | Classes.Both -> Some "lightgreen"
      in
      let oc = open_out file in
      output_string oc (Dot.to_dot ~highlight:colour g);
      close_out oc;
      Format.printf "wrote %s@." file

let allocate g ctx () =
  let a = Allocation.compute ~ctx g in
  Format.printf "%a@." Allocation.pp a;
  match Allocation.validate a with
  | Ok () -> Format.printf "allocation valid; utilities match Proposition 6@."
  | Error m -> Format.printf "INVALID allocation: %s@." m

let dynamics g ctx iters () =
  let alloc = Allocation.compute ~ctx g in
  let traj = Prd.trajectory ~ctx ~iters g alloc in
  Format.printf "t,l1_distance_to_bd_allocation@.";
  List.iter
    (fun (t, dist) ->
      if t < 10 || t mod (Stdlib.max 1 (iters / 20)) = 0 || t = iters then
        Format.printf "%d,%.9f@." t dist)
    traj;
  let final = Prd.run ~ctx ~iters g in
  let target = Utility.of_decomposition g (Allocation.decomposition alloc) in
  let err = ref 0.0 in
  Array.iteri
    (fun v u ->
      err := Stdlib.max !err (abs_float (u -. Q.to_float target.(v))))
    (Prd.utilities final);
  Format.printf "max utility error after %d rounds: %.3e@." iters !err

let sybil g ctx v_opt checkpoint resume () =
  (* arm here (not just inside best_attack) so a --deadline also routes
     through the fault-tolerant partial-results path below *)
  let ctx = Engine.Ctx.arm ctx in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let report (a : Incentive.attack) =
    Format.printf
      "v=%d  best w1=%s  attack utility=%s  honest=%s  ratio=%s (%.5f)@." a.v
      (Q.to_string a.w1) (Q.to_string a.utility) (Q.to_string a.honest)
      (Q.to_string a.ratio) (Q.to_float a.ratio)
  in
  (* the exact sweep reports its rational witness in the historical
     format, then the certified optimum as quadratic surds *)
  let report_exact (e : Incentive.exact_attack) =
    report e.Incentive.witness;
    Format.printf
      "exact: w1=%s  utility=%s  ratio=%s (%.5f)  pieces=%d  events=%d@."
      (Qx.to_string e.Incentive.w1_exact)
      (Qx.to_string e.Incentive.utility_exact)
      (Qx.to_string e.Incentive.ratio_exact)
      (Qx.to_float e.Incentive.ratio_exact)
      e.Incentive.pieces e.Incentive.events
  in
  let report_k (a : Incentive.kattack) =
    Format.printf
      "v=%d  best weights=[%s]  attack utility=%s  honest=%s  ratio=%s (%.5f)@."
      a.Incentive.v
      (String.concat ";"
         (Array.to_list (Array.map Q.to_string a.Incentive.weights)))
      (Q.to_string a.Incentive.utility)
      (Q.to_string a.Incentive.honest)
      (Q.to_string a.Incentive.ratio)
      (Q.to_float a.Incentive.ratio)
  in
  let stop_early e p_status_checkpoint =
    (* partial results above; exit through the taxonomy (code 4/...) *)
    if p_status_checkpoint then
      Format.printf "stopped early (checkpoint saved; rerun with --resume)@."
    else Format.printf "stopped early@.";
    Ringshare_error.error e
  in
  let k = ctx.Engine.Ctx.identities in
  (if k >= 3 then
     (* k-way search: one report format for both sweeps (the exact sweep's
        certified coordinate-descent point is itself rational) *)
     match v_opt with
     | Some v -> report_k (Incentive.best_splitk ~ctx g ~v)
     | None when Budget.is_limited budget || checkpoint <> None || resume ->
         let p = Incentive.best_attack_within ~ctx ?checkpoint ~resume g in
         Format.printf "searched %d/%d vertices@." p.Incentive.completed
           p.Incentive.total;
         Option.iter report_k p.Incentive.best_k;
         (match p.Incentive.status with
         | Ok () -> ()
         | Error e -> stop_early e (checkpoint <> None))
     | None -> report_k (Incentive.best_attack_k ~ctx g)
   else
     match (v_opt, ctx.Engine.Ctx.sweep) with
     | Some v, Engine.Exact ->
         report_exact (Incentive.best_split_exact ~ctx g ~v)
     | Some v, Engine.Grid -> report (Incentive.best_split ~ctx g ~v)
     | None, _ when Budget.is_limited budget || checkpoint <> None || resume ->
         (* fault-tolerant path: sequential scan, snapshot per vertex,
            partial best on budget exhaustion *)
         let p = Incentive.best_attack_within ~ctx ?checkpoint ~resume g in
         Format.printf "searched %d/%d vertices@." p.Incentive.completed
           p.Incentive.total;
         (match p.Incentive.best_exact with
         | Some e -> report_exact e
         | None -> Option.iter report p.Incentive.best);
         (match p.Incentive.status with
         | Ok () -> ()
         | Error e -> stop_early e (checkpoint <> None))
     | None, Engine.Exact -> report_exact (Incentive.best_attack_exact ~ctx g)
     | None, Engine.Grid -> report (Incentive.best_attack ~ctx g));
  if k >= 3 then
    Format.printf "Theorem 8 bound: 2 (for 2 identities; k=%d can exceed it)@."
      k
  else Format.printf "Theorem 8 bound: 2@."

let curve g ctx v samples () =
  let pts = Misreport.curve ~ctx g ~v ~samples in
  Format.printf "x,utility,alpha,class@.";
  List.iter
    (fun (p : Misreport.point) ->
      Format.printf "%s,%s,%s,%a@." (Q.to_string p.x) (Q.to_string p.utility)
        (Q.to_string p.alpha) Classes.pp_cls p.cls)
    pts;
  (match Misreport.classify_shape pts with
  | Ok s -> Format.printf "shape: %a@." Misreport.pp_shape s
  | Error m -> Format.printf "shape: VIOLATION (%s)@." m);
  match Misreport.check_utility_monotone pts with
  | Ok () -> Format.printf "Theorem 10 (monotone utility): OK@."
  | Error m -> Format.printf "Theorem 10: VIOLATED (%s)@." m

let breaks g ctx v () =
  let events = Breakpoints.events (Breakpoints.exact_pieces ~ctx g ~v) in
  Format.printf "%d decomposition change events for x in [0, %s]@."
    (List.length events)
    (Q.to_string (Graph.weight g v));
  List.iter
    (fun (ev : Breakpoints.exact_event) ->
      let kind =
        match Breakpoints.classify_event ev ~v with
        | `Merge -> "merge"
        | `Split -> "split"
        | `Other -> "other"
      in
      Format.printf "@[<v2>x = %a  [%s]@,before: %a@,after:  %a@]@." Qx.pp
        ev.at kind Decompose.pp ev.left Decompose.pp ev.right)
    events

let trace g ctx v () =
  let t = Trace.compute ~ctx g ~v in
  Format.printf "%a@." Trace.pp t;
  (match Trace.check_prop12 t with
  | Ok () -> Format.printf "Propositions 11/12 on the trace: OK@."
  | Error m -> Format.printf "Propositions 11/12: VIOLATED (%s)@." m);
  Format.printf "@.csv:@.%s" (Trace.to_csv t)

let certify g ctx () =
  let d = Decompose.compute ~ctx g in
  Format.printf "decomposition:@.%a@." Decompose.pp d;
  let cert = Certificate.build g d in
  let size =
    List.fold_left (fun acc (st : Certificate.stage) -> acc + List.length st.flow) 0 cert
  in
  Format.printf "certificate built: %d stages, %d flow entries@."
    (List.length cert) size;
  match Certificate.verify g d cert with
  | Ok () -> Format.printf "certificate verifies: alpha-ratios are optimal@."
  | Error m -> Format.printf "CERTIFICATE REJECTED: %s@." m

let general g ctx v () =
  (* ctx.grid doubles as the per-dimension simplex resolution here, as
     the --grid flag always has for this subcommand *)
  let spec, utility, ratio =
    Sybil_general.best_attack ~ctx ~grid:ctx.Engine.Ctx.grid g ~v
  in
  Format.printf "agent %d: best attack uses %d identities@." v
    (Array.length spec.Sybil_general.groups);
  Array.iteri
    (fun i grp ->
      Format.printf "  identity %d: weight %s, neighbours [%s]@." (i + 1)
        (Q.to_string spec.Sybil_general.weights.(i))
        (String.concat "; " (List.map string_of_int grp)))
    spec.Sybil_general.groups;
  Format.printf "attack utility %s, ratio %.5f (conjectured bound: 2)@."
    (Q.to_string utility) (Q.to_float ratio)

let family ks ctx () =
  Format.printf "%6s %16s %16s@." "k" "sup 2-1/(5k+1)" "search finds";
  List.iter
    (fun k ->
      Format.printf "%6d %16.6f %16.6f@." k
        (Q.to_float (Lower_bound.supremum_ratio ~k))
        (Q.to_float (Lower_bound.measured_ratio ~ctx ~k ())))
    ks

let audit g ctx () =
  Format.printf "%-6s %-10s %-12s %-12s %-8s@." "agent" "weight" "honest"
    "attack" "ratio";
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v = 2 && Graph.is_ring g then begin
      let a = Incentive.best_split ~ctx g ~v in
      Format.printf "%-6d %-10s %-12s %-12s %-8.4f@." v
        (Q.to_string (Graph.weight g v))
        (Q.to_string a.honest) (Q.to_string a.utility)
        (Incentive.ratio_of_attack a)
    end
    else if Graph.degree g v >= 1 && Graph.degree g v <= 4 then begin
      let _, u, r =
        Sybil_general.best_attack ~ctx
          ~grid:(Stdlib.min ctx.Engine.Ctx.grid 6) g ~v
      in
      Format.printf "%-6d %-10s %-12s %-12s %-8.4f@." v
        (Q.to_string (Graph.weight g v))
        "-" (Q.to_string u) (Q.to_float r)
    end
  done;
  Format.printf "Theorem 8 bound (rings; conjectured in general): 2@."

let save g out () =
  Serial.save out g;
  Format.printf "wrote %s@." out

let verify g ctx v () =
  match Symbolic.verify_theorem8 ~ctx g ~v with
  | Error m -> Format.printf "internal error: %s@." m
  | Ok r ->
      Format.printf "agent %d: honest U_v = %s; %d structure pieces@." v
        (Q.to_string r.Symbolic.honest)
        (List.length r.Symbolic.intervals);
      List.iter
        (fun (iv : Symbolic.interval) ->
          Format.printf
            "  [%.5f, %.5f]  U(w1) = (%a) / (%a)@.                    bound 2*U_v: %s; max here %a@."
            (Qx.to_float iv.lo) (Qx.to_float iv.hi) Poly.pp iv.num Poly.pp
            iv.den
            (if iv.bound_holds then "PROVED" else "unproven")
            Qx.pp iv.best_here)
        r.Symbolic.intervals;
      (* U_v = 0 (e.g. a zero-weight agent): the ratio convention of
         Incentive, 1 when the attack gains nothing, else infinite *)
      let ratio =
        if not (Q.is_zero r.Symbolic.honest) then
          Qx.to_float (Qx.div_q r.Symbolic.best_found r.Symbolic.honest)
        else if Qx.sign r.Symbolic.best_found = 0 then 1.0
        else Float.infinity
      in
      Format.printf "exact maximum attack utility: %a (ratio %.5f)@." Qx.pp
        r.Symbolic.best_found ratio;
      Format.printf "Theorem 8 for this agent: %s@."
        (if r.Symbolic.certified then "CERTIFIED (zeta_v <= 2)"
         else "NOT fully certified")

(* The search that discovered the tightness family, now living in
   Experiments.hunt so the harness and the CLI share the checkpointed,
   budget-aware implementation. *)
let hunt seed trials ctx checkpoint resume () =
  let ctx = Engine.Ctx.arm ctx in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let r =
    Experiments.hunt ~ctx ?checkpoint ~resume ~budget ~seed ~trials
      Format.std_formatter
  in
  match r.Experiments.hunt_status with
  | Ok () -> ()
  | Error e ->
      Format.printf
        "hunt stopped after trial %d/%d; best so far %.5f%s@."
        r.Experiments.trials_done r.Experiments.trials_total
        (Q.to_float r.Experiments.best_ratio)
        (match checkpoint with
        | Some _ -> " (checkpoint saved; rerun with --resume)"
        | None -> "");
      Ringshare_error.error e

(* One Ctx mapped over many instance files; the cache is shared by
   every item (attached here when no --cache was given) and holds one
   whole attack result per instance, so a file listed again is answered
   by a single lookup.  Distinct instances share nothing. *)
let batch files ctx () =
  if files = [] then begin
    Format.eprintf "ringshare: batch needs at least one instance file@.";
    exit 2
  end;
  let ctx =
    match ctx.Engine.Ctx.cache with
    | Some _ -> ctx
    | None -> Engine.Ctx.with_cache (Engine.Cache.create ~capacity:4096 ()) ctx
  in
  let failed = ref 0 in
  (if ctx.Engine.Ctx.identities >= 3 then begin
     let results =
       Engine.run_batch_r ~ctx
         ~f:(fun ctx file ->
           match Serial.load_r file with
           | Error e -> Ringshare_error.error e
           | Ok g -> (Graph.n g, Incentive.best_attack_k ~ctx g))
         (Array.of_list files)
     in
     Format.printf "%-32s %6s %6s %16s %10s@." "file" "n" "v" "weights" "ratio";
     List.iteri
       (fun i file ->
         match results.(i) with
         | Ok (n, (a : Incentive.kattack)) ->
             Format.printf "%-32s %6d %6d %16s %10.5f@." file n a.Incentive.v
               (String.concat ";"
                  (Array.to_list (Array.map Q.to_string a.Incentive.weights)))
               (Q.to_float a.Incentive.ratio)
         | Error e ->
             incr failed;
             Format.printf "%-32s FAILED: %s@." file
               (Ringshare_error.to_string e))
       files;
     Format.printf "batch: %d instances, %d failed (identities=%d)@."
       (List.length files) !failed ctx.Engine.Ctx.identities
   end
   else begin
     let results =
       Engine.run_batch_r ~ctx
         ~f:(fun ctx file ->
           match Serial.load_r file with
           | Error e -> Ringshare_error.error e
           | Ok g -> (Graph.n g, Incentive.best_attack ~ctx g))
         (Array.of_list files)
     in
     Format.printf "%-32s %6s %6s %10s %10s@." "file" "n" "v" "w1" "ratio";
     List.iteri
       (fun i file ->
         match results.(i) with
         | Ok (n, (a : Incentive.attack)) ->
             Format.printf "%-32s %6d %6d %10s %10.5f@." file n a.v
               (Q.to_string a.w1) (Q.to_float a.ratio)
         | Error e ->
             incr failed;
             Format.printf "%-32s FAILED: %s@." file
               (Ringshare_error.to_string e))
       files;
     Format.printf "batch: %d instances, %d failed (Theorem 8 bound: 2)@."
       (List.length files) !failed
   end);
  if !failed > 0 then exit 2

(* ------------------------------------------------------------------ *)
(* Observability flags (shared by every subcommand)                    *)
(* ------------------------------------------------------------------ *)

let metrics_arg =
  Arg.(value
       & opt ~vopt:(Some "METRICS_ringshare.json") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Record solver metrics and write the artifact to $(docv) \
               (default METRICS_ringshare.json; use --metrics=FILE to \
               change the path).  Never alters results or stdout.")

let spans_arg =
  Arg.(value & flag
       & info [ "spans" ]
         ~doc:"Also time solver spans; the aggregates go to stderr and \
               into the --metrics JSON.")

let obs_only_arg =
  Arg.(value & opt (some string) None
       & info [ "obs-only" ] ~docv:"SUBSYS,..."
         ~doc:"Restrict the metrics artifact to these subsystems.  An \
               unknown subsystem is a spec error (exit 4).")

let failpoints_arg =
  Arg.(value & opt (some string) None
       & info [ "failpoints" ] ~docv:"SPEC"
         ~doc:"Activate deterministic fault injection:                site=action[@trigger] entries separated by commas, e.g.                $(b,checkpoint.rename=error@3,parwork.task=fail@p0.25/seed7).                Actions: error (transient), fail (permanent), delay, skip.                Triggers: every hit, the K-th hit (@K), or seeded probability                (@pP/seedN).  An unknown site or malformed entry is a spec                error (exit 4).")

let obs_wrap metrics spans obs_only failpoints body =
  (match failpoints with
  | None -> ()
  | Some spec -> (
      match Failpoint.configure spec with
      | Ok () -> ()
      | Error msg ->
          Format.eprintf "ringshare: bad --failpoints spec: %s@." msg;
          exit 4));
  let only =
    match obs_only with
    | None -> None
    | Some s ->
        let subs =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        let known = Obs.known_subsystems () in
        List.iter
          (fun sub ->
            if not (List.mem sub known) then begin
              (* spec error, same exit class as the lint's unknown rule *)
              Format.eprintf
                "ringshare: unknown metrics subsystem %S (known: %s)@." sub
                (String.concat ", " known);
              exit 4
            end)
          subs;
        Some subs
  in
  if metrics <> None then Obs.set_metrics true;
  if spans then begin
    Obs.set_metrics true;
    Obs.set_spans true
  end;
  if metrics = None && not spans then body ()
  else
    (* write the artifact even when the body exits through the error
       taxonomy: a budget-exhausted sweep still leaves its metrics *)
    Fun.protect body ~finally:(fun () ->
        (match metrics with
        | None -> ()
        | Some path ->
            (* final GC reading so the gc gauges cover the whole run *)
            Obs.record_gc ();
            let snap = Obs.snapshot () in
            let snap =
              match only with
              | Some subs -> Obs.filter_subsystems subs snap
              | None -> snap
            in
            (* Artifact.write = atomic temp+rename, with the
               artifact.write/artifact.rename failpoints on the path *)
            (match Artifact.write ~path (Obs.to_json ~spans snap) with
            | () -> Format.eprintf "ringshare: metrics written to %s@." path
            | exception Ringshare_error.Error e ->
                Format.eprintf "ringshare: failed to write metrics: %s@."
                  (Ringshare_error.to_string e);
                exit (Ringshare_error.exit_code e)));
        if spans then
          List.iter
            (fun (r : Obs.Span.record) ->
              Format.eprintf "ringshare: span %-32s count=%d total_ns=%d@."
                r.path r.count r.total_ns)
            (Obs.Span.records ()))

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering.")

let iters_arg =
  Arg.(value & opt int 1000 & info [ "iters" ] ~doc:"Dynamics rounds.")

let samples_arg =
  Arg.(value & opt int 32 & info [ "samples" ] ~doc:"Curve sample count.")

let v_opt_arg =
  Arg.(value & opt (some int) None
       & info [ "agent"; "v" ] ~docv:"V"
         ~doc:"Restrict to one manipulative agent.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Atomically snapshot progress to $(docv) as the search runs.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
         ~doc:"Continue from the --checkpoint snapshot instead of restarting.")

(* Every subcommand body is a thunk; the obs wrapper runs flag setup
   before it and artifact emission after it (even on taxonomy exits). *)
let cmd name doc term =
  Cmd.v (Cmd.info name ~doc)
    Term.(const obs_wrap $ metrics_arg $ spans_arg $ obs_only_arg
          $ failpoints_arg $ term)

let decompose_cmd =
  cmd "decompose" "Bottleneck decomposition, classes and utilities"
    Term.(const decompose $ graph_term $ ctx_term $ dot_arg)

let allocate_cmd =
  cmd "allocate" "BD allocation (Definition 5)"
    Term.(const allocate $ graph_term $ ctx_term)

let dynamics_cmd =
  cmd "dynamics" "Proportional response dynamics convergence"
    Term.(const dynamics $ graph_term $ ctx_term $ iters_arg)

let sybil_cmd =
  cmd "sybil" "Best Sybil attack and incentive ratio"
    Term.(const sybil $ graph_term $ ctx_term $ v_opt_arg $ checkpoint_arg
          $ resume_arg)

let curve_cmd =
  cmd "curve" "Misreport curves U_v(x) and alpha_v(x)"
    Term.(const curve $ graph_term $ ctx_term $ v_arg $ samples_arg)

let breaks_cmd =
  cmd "breaks" "Decomposition breakpoints as one weight varies"
    Term.(const breaks $ graph_term $ ctx_term $ v_arg)

let trace_cmd =
  cmd "trace" "Full interval structure of the decomposition (Section III.B)"
    Term.(const trace $ graph_term $ ctx_term $ v_arg)

let certify_cmd =
  cmd "certify" "Flow-witness certificate of the decomposition"
    Term.(const certify $ graph_term $ ctx_term)

let general_cmd =
  cmd "general" "Best m-identity Sybil attack (any network)"
    Term.(const general $ graph_term $ ctx_term $ v_arg)

let files_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"FILE" ~doc:"ringshare-graph instance files.")

let batch_cmd =
  cmd "batch" "Best Sybil attack over many instance files (shared cache)"
    Term.(const batch $ files_arg $ ctx_term)

let ks_arg =
  Arg.(value & opt (list int) [ 1; 2; 4; 8; 16 ]
       & info [ "k" ] ~doc:"Family parameters to evaluate.")

let family_cmd =
  cmd "family" "The tightness family ring(20k, 4k, 100k^2, k, 1)"
    Term.(const family $ ks_arg $ ctx_term)

let audit_cmd =
  cmd "audit" "Per-agent Sybil vulnerability audit"
    Term.(const audit $ graph_term $ ctx_term)

let out_arg =
  Arg.(required & opt (some string) None
       & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")

let save_cmd =
  cmd "save" "Write the instance to a ringshare-graph file"
    Term.(const save $ graph_term $ out_arg)

let trials_arg =
  Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Number of random instances.")

let hunt_cmd =
  cmd "hunt" "Random search for high-incentive-ratio rings"
    Term.(const hunt $ seed_arg $ trials_arg
          $ ctx_term_with ~grid_default:12 ~refine_default:2 ()
          $ checkpoint_arg $ resume_arg)

let verify_cmd =
  cmd "verify" "Symbolic certificate that zeta_v <= 2 (Theorem 8)"
    Term.(const verify $ graph_term $ ctx_term $ v_arg)

let () =
  let info =
    Cmd.info "ringshare" ~version:"1.0.0"
      ~doc:"Resource sharing over rings: BD allocation and Sybil incentive ratio"
  in
  (* user-input errors (bad weights, malformed files, out-of-range
     agents) surface as exceptions from the libraries; report them
     tersely instead of a backtrace.  Structured errors carry their own
     exit-code class (2 input, 3 inconsistency, 4 budget, 5 I/O); spec
     errors from graph_term go through Cmdliner with ~term_err:2. *)
  exit
    (try
       Cmd.eval ~catch:false ~term_err:2
         (Cmd.group info
          [
            decompose_cmd;
            allocate_cmd;
            dynamics_cmd;
            sybil_cmd;
            curve_cmd;
            breaks_cmd;
            trace_cmd;
            certify_cmd;
            general_cmd;
            batch_cmd;
            family_cmd;
            audit_cmd;
            hunt_cmd;
            verify_cmd;
            save_cmd;
          ])
     with
    | Ringshare_error.Error e ->
        Format.eprintf "ringshare: %s@." (Ringshare_error.to_string e);
        Ringshare_error.exit_code e
    | Budget.Exhausted { steps; elapsed } ->
        Format.eprintf "ringshare: compute budget exhausted (%d steps, %.1f s)@."
          steps elapsed;
        4
    | Invalid_argument m | Failure m ->
        Format.eprintf "ringshare: %s@." m;
        2)
