(* Exhaustive reference for the chain DP's oracle: h(α) and the maximal
   minimiser by enumerating every subset of the mask.  Independent of
   the DP — it never looks at components, states or tables — so the
   DP's answers can be checked against it on any graph small enough to
   enumerate. *)

module Q = Rational

(* [(h, s_max)] where h = min over all S ⊆ mask, the empty set included,
   of w(Γ_mask(S)) − α·w(S), and s_max is the union of the sets attaining
   it (minimisers are closed under union, so this is the maximal one). *)
let brute_h_and_argmax g ~mask ~alpha =
  let verts = Array.of_list (Vset.elements mask) in
  let k = Array.length verts in
  let best = ref Q.zero and union = ref Vset.empty in
  for bits = 1 to (1 lsl k) - 1 do
    let s = ref Vset.empty in
    Array.iteri
      (fun i v -> if bits land (1 lsl i) <> 0 then s := Vset.add v !s)
      verts;
    let cost =
      Q.sub
        (Graph.weight_of_set g (Graph.gamma ~mask g !s))
        (Q.mul alpha (Graph.weight_of_set g !s))
    in
    match Q.compare cost !best with
    | c when c < 0 ->
        best := cost;
        union := !s
    | 0 -> union := Vset.union !union !s
    | _ -> ()
  done;
  (!best, !union)
