module Q = Rational

let proposition3 ?ctx g = Decompose.validate g (Decompose.compute ?ctx g)

let proposition6 ?ctx g =
  let a = Allocation.compute ?ctx g in
  match Allocation.validate a with
  | Error _ as e -> e
  | Ok () ->
      let st = Prd_exact.of_allocation a in
      if Prd_exact.equal (Prd_exact.step st) st then Ok ()
      else Error "BD allocation is not a fixed point of the dynamics"

let theorem10 ?ctx ?(samples = 24) g ~v =
  Misreport.check_utility_monotone (Misreport.curve ?ctx g ~v ~samples)

let proposition11 ?ctx ?(samples = 24) g ~v =
  Misreport.classify_shape (Misreport.curve ?ctx g ~v ~samples)

let proposition12 ?ctx g ~v =
  (* Propositions 11 and 12 together say: scanning x upward, v's class
     side forms a C-phase followed by a B-phase with at most one switch
     (at α_v = 1).  A B→C transition, or a second C→B transition, would
     violate them. *)
  let pieces = Breakpoints.exact_pieces ?ctx g ~v in
  let side d u =
    let p = Decompose.pair_of d u in
    if Q.equal p.alpha Q.one then `Either
    else if Vset.mem u p.b then `B
    else `C
  in
  let sides =
    List.map (fun (p : Breakpoints.exact_piece) -> side p.structure v) pieces
  in
  let rec check phase = function
    | [] -> Ok ()
    | `Either :: rest -> check phase rest
    | `C :: rest -> (
        match phase with
        | `C_phase -> check `C_phase rest
        | `B_phase ->
            Error "v returns to C class after being B class (violates Prop 11/12)")
    | `B :: rest -> check `B_phase rest
  in
  check `C_phase sides

let lemma13 ?ctx g ~v =
  (* Within a constant-class phase of the reported weight, the pairs on
     the "safe" side of v's alpha-ratio are untouched: for C-class v and
     x increasing, every pair with a smaller alpha-ratio persists with
     identical sets and ratio; for B-class v, every pair with a larger
     alpha-ratio does. *)
  let t = Trace.compute ?ctx g ~v in
  let ivs = Array.of_list t.Trace.intervals in
  let pair_in structure (p : Decompose.pair) =
    List.exists
      (fun (q : Decompose.pair) ->
        Vset.equal p.b q.b && Vset.equal p.c q.c && Q.equal p.alpha q.alpha)
      structure
  in
  let check_pairwise i j =
    (* i < j: x increases from sample i to sample j, same class phase *)
    let a = ivs.(i) and b = ivs.(j) in
    let alpha_v = Decompose.alpha_of a.Trace.structure v in
    let keep (p : Decompose.pair) =
      match a.Trace.v_class with
      | Classes.C -> Q.compare p.alpha alpha_v < 0
      | Classes.B -> Q.compare p.alpha alpha_v > 0
      | Classes.Both -> false
    in
    List.for_all
      (fun p -> (not (keep p)) || pair_in b.Trace.structure p)
      a.Trace.structure
  in
  let ok = ref true in
  for i = 0 to Array.length ivs - 1 do
    for j = i + 1 to Array.length ivs - 1 do
      let same_class =
        Classes.equal_cls ivs.(i).Trace.v_class ivs.(j).Trace.v_class
        && not (Classes.equal_cls ivs.(i).Trace.v_class Classes.Both)
      in
      if same_class && not (check_pairwise i j) then ok := false
    done
  done;
  if !ok then Ok ()
  else Error "a pair on the safe side of alpha_v was impacted (Lemma 13)"

let lemma9 ?ctx g ~v =
  let honest = Sybil.honest_utility ?ctx g ~v in
  let w10, _ = Sybil.initial_split ?ctx g ~v in
  let u = Sybil.split_utility ?ctx g ~v ~w1:w10 in
  if Q.equal u honest then Ok ()
  else
    Error
      (Format.asprintf "split at (w1^0, w2^0) yields %a, honest U_v = %a"
         Q.pp u Q.pp honest)

let lemma14_20 ?ctx g ~v = Stages.classify_initial ?ctx g ~v

let lemmas15_21 ?ctx g ~v =
  (* Lemma 15 (Case C-3) / Lemma 21 (Case D-1): when both identities
     share a pair (same side) on the honest path, an arbitrarily small
     move of the stage-1 weight splits that pair in two, the moving
     identity's alpha strictly on the far side and the fixed identity's
     alpha unchanged.  Vacuously true when the identities are already in
     different pairs. *)
  let w10, w20 = Sybil.initial_split ?ctx g ~v in
  let s0 = Sybil.split_free g ~v ~w1:w10 ~w2:w20 in
  let d0 = Decompose.compute ?ctx s0.Sybil.path in
  let v1 = s0.Sybil.v1 and v2 = s0.Sybil.v2 in
  let same_side =
    Decompose.pair_index d0 v1 = Decompose.pair_index d0 v2
    && ((Decompose.in_b d0 v1 && Decompose.in_b d0 v2)
       || (Decompose.in_c d0 v1 && Decompose.in_c d0 v2))
  in
  if not same_side then Ok ()
  else begin
    let c_case = Decompose.in_c d0 v1 && Decompose.in_c d0 v2 in
    (* C case: shrink w2 by epsilon (the fixed identity is v1);
       B case: grow w1 by epsilon (the fixed identity is v2). *)
    let probe eps =
      if c_case then
        Sybil.split_free g ~v ~w1:w10 ~w2:(Q.sub w20 eps)
      else Sybil.split_free g ~v ~w1:(Q.add w10 eps) ~w2:w20
    in
    let budget = if c_case then w20 else w20 in
    if Q.is_zero budget then Ok ()
    else begin
      let rec try_eps k =
        if k > 12 then Ok () (* pair never split at probed scales *)
        else begin
          let eps = Q.div_int budget (1 lsl k) in
          if Q.sign eps <= 0 then Ok ()
          else begin
            let s = probe eps in
            let d = Decompose.compute ?ctx s.Sybil.path in
            if Decompose.pair_index d v1 = Decompose.pair_index d v2 then
              try_eps (k + 1)
            else begin
              let a1 = Decompose.alpha_of d v1
              and a2 = Decompose.alpha_of d v2 in
              let a1_0 = Decompose.alpha_of d0 v1
              and a2_0 = Decompose.alpha_of d0 v2 in
              if c_case then
                (* moving identity is v2: alpha_{v2} < alpha_{v1} = old *)
                if Q.compare a2 a1 < 0 && Q.equal a1 a1_0 then Ok ()
                else
                  Error
                    (Format.asprintf
                       "Lemma 15: expected alpha_v2 < alpha_v1 = %a, got (%a, %a)"
                       Q.pp a1_0 Q.pp a2 Q.pp a1)
              else if Q.compare a1 a2 < 0 && Q.equal a2 a2_0 then Ok ()
              else
                Error
                  (Format.asprintf
                     "Lemma 21: expected alpha_v1 < alpha_v2 = %a, got (%a, %a)"
                     Q.pp a2_0 Q.pp a1 Q.pp a2)
            end
          end
        end
      in
      try_eps 4
    end
  end

let theorem8 ?ctx g =
  let a = Incentive.best_attack ?ctx g in
  if Q.compare a.ratio (Q.of_int 2) <= 0 then Ok a
  else
    Error
      (Format.asprintf "incentive ratio %a exceeds 2 at vertex %d" Q.pp
         a.ratio a.v)

let corollaries17_23 ?ctx g ~v =
  (* Corollary 17 (v C class) / Corollary 23 (v B class): at the end of
     the first stage the two identities sit in different pairs, with
     alpha_{grow} > alpha_{shrink} for C-class v and
     alpha_{grow} < alpha_{shrink} for B-class v. *)
  let a = Incentive.best_split ?ctx g ~v in
  let w = Graph.weight g v in
  let w10, w20 = Sybil.initial_split ?ctx g ~v in
  let w1s = a.w1 in
  let w2s = Q.sub w w1s in
  let grow_is_v1 = Q.compare w1s w10 >= 0 in
  let ring_d = Decompose.compute ?ctx g in
  let v_in_c =
    Q.equal (Decompose.pair_of ring_d v).alpha Q.one || Decompose.in_c ring_d v
  in
  (* end of stage 1: C-class v moves the shrink side first; B-class v the grow side *)
  let state =
    if v_in_c then if grow_is_v1 then (w10, w2s) else (w1s, w20)
    else if grow_is_v1 then (w1s, w20)
    else (w10, w2s)
  in
  let s = Sybil.split_free g ~v ~w1:(fst state) ~w2:(snd state) in
  let d = Decompose.compute ?ctx s.Sybil.path in
  let grow_id = if grow_is_v1 then s.Sybil.v1 else s.Sybil.v2 in
  let shrink_id = if grow_is_v1 then s.Sybil.v2 else s.Sybil.v1 in
  let ag = Decompose.alpha_of d grow_id
  and ash = Decompose.alpha_of d shrink_id in
  let same_pair =
    Decompose.pair_index d grow_id = Decompose.pair_index d shrink_id
  in
  (* The corollaries apply to genuinely two-sided splits; degenerate
     optima (all weight on one identity) leave a zero-weight identity
     whose pair may coincide. *)
  if Q.is_zero (fst state) || Q.is_zero (snd state) then Ok ()
  else if same_pair && not (Q.equal ag ash) then
    Error "identities share a pair with distinct alpha (impossible)"
  else if same_pair then Ok () (* no movement happened: honest optimum *)
  else if v_in_c then
    if Q.compare ag ash >= 0 then Ok ()
    else Error "Corollary 17: alpha_grow < alpha_shrink after stage C-1"
  else if Q.compare ag ash <= 0 then Ok ()
  else Error "Corollary 23: alpha_grow > alpha_shrink after stage D-1"

let stage_lemmas ?ctx g ~v =
  let a = Incentive.best_split ?ctx g ~v in
  let r = Stages.analyse ?ctx g ~v ~w1_star:a.w1 in
  if Stages.all_checks_pass r then Ok r
  else
    let failed =
      r.checks |> List.filter (fun (_, ok) -> not ok) |> List.map fst
      |> String.concat "; "
    in
    Error failed
