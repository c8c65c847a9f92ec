module Q = Rational

type result = {
  z_lo : Q.t;
  z_hi : Q.t;
  changed : bool;
  same_pair : bool;
  utility_constant : bool;
}

let find_critical ?ctx g ~v ~w1 ~z_max =
  let ctx = Engine.Ctx.get ctx in
  let grid = ctx.Engine.Ctx.grid in
  let w = Graph.weight g v in
  let w2 = Q.sub w w1 in
  if Q.compare z_max w2 > 0 then
    invalid_arg "Adjusting.find_critical: z_max exceeds w2";
  let tolerance = Q.div_int z_max (1 lsl 20) in
  let state z =
    let s = Sybil.split g ~v ~w1:(Q.add w1 z) ~w2:(Q.sub w2 z) in
    let d = Decompose.compute ~ctx s.path in
    let u1 = Utility.of_vertex s.path d s.v1
    and u2 = Utility.of_vertex s.path d s.v2 in
    (d, Q.add u1 u2)
  in
  let d0, u0 = state Q.zero in
  let same_pair =
    (* The technique applies when both identities sit on the same side of
       the same bottleneck pair (both in C_j, Case C-3, or both in B_j,
       Case D-1): then z moves weight within one side and the pair's
       alpha-ratio - hence the total utility - is unchanged.  On opposite
       sides the utilities legitimately move. *)
    let s0 = Sybil.split_free g ~v ~w1 ~w2 in
    let v1 = s0.Sybil.v1 and v2 = s0.Sybil.v2 in
    Decompose.pair_index d0 v1 = Decompose.pair_index d0 v2
    && ((Decompose.in_b d0 v1 && Decompose.in_b d0 v2)
       || (Decompose.in_c d0 v1 && Decompose.in_c d0 v2))
  in
  let utility_ok = ref true in
  let probe z =
    let d, u = state z in
    let same = Decompose.same_structure d d0 in
    if same_pair && same && not (Q.equal u u0) then utility_ok := false;
    same
  in
  let rec bisect lo hi =
    if Q.compare (Q.sub hi lo) tolerance <= 0 then (lo, hi)
    else
      let mid = Q.div_int (Q.add lo hi) 2 in
      if probe mid then bisect mid hi else bisect lo mid
  in
  (* Find the first grid cell where the decomposition changed. *)
  let step = Q.div_int z_max grid in
  let rec walk i =
    if i > grid then None
    else
      let z = if i = grid then z_max else Q.mul_int step i in
      if probe z then walk (i + 1) else Some z
  in
  if Q.is_zero z_max then
    {
      z_lo = Q.zero;
      z_hi = Q.zero;
      changed = false;
      same_pair;
      utility_constant = true;
    }
  else
    match walk 1 with
    | None ->
        {
          z_lo = z_max;
          z_hi = z_max;
          changed = false;
          same_pair;
          utility_constant = !utility_ok;
        }
    | Some bad ->
        let lo = Q.max Q.zero (Q.sub bad step) in
        let z_lo, z_hi = bisect lo bad in
        { z_lo; z_hi; changed = true; same_pair; utility_constant = !utility_ok }
