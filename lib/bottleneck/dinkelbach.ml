module Q = Rational

let c_solves = Obs.Counter.make ~subsystem:"decomposition" "dinkelbach_solves"

let c_iters =
  Obs.Counter.make ~subsystem:"decomposition" "dinkelbach_iterations"

let fp_iter = Failpoint.register "solver.dinkelbach.iter"

(* Polymorphic in the minimiser-set representation: the Vset instance
   below serves the classic whole-mask solvers, while the chain driver
   runs the same iteration (same counters, failpoint, fuel and budget
   discipline) over flat member arrays per component. *)
let solve_poly ?(budget = Budget.unlimited) ~oracle ~alpha_of init =
  Obs.Counter.incr c_solves;
  let fail m = Ringshare_error.(error (Oracle_inconsistent m)) in
  let rec iterate alpha guard =
    if guard = 0 then fail "Dinkelbach.solve: no convergence";
    Failpoint.hit fp_iter;
    Obs.Counter.incr c_iters;
    Budget.tick budget;
    let h, s_max = oracle ~alpha in
    match Q.sign h with
    | 0 -> (s_max, alpha)
    | n when n > 0 -> fail "Dinkelbach.solve: oracle returned h > 0"
    | _ ->
        let alpha' = alpha_of s_max in
        if Q.compare alpha' alpha >= 0 then
          fail "Dinkelbach.solve: no strict progress"
        else iterate alpha' (guard - 1)
  in
  (* The α values visited are ratios of subset sums; strictly decreasing
     sequences through that set are finite, but guard against oracle bugs
     with a generous fuel bound. *)
  iterate init 100_000

let solve ?budget ~oracle ~alpha_of init =
  solve_poly ?budget ~oracle ~alpha_of init
