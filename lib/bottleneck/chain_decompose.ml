module Q = Rational

(* Whole-decomposition driver for chain graphs (every vertex of degree
   ≤ 2), replacing the generic extract-loop's whole-mask Dinkelbach
   with per-component solves.

   The generic loop re-runs a full-mask oracle per pair: each Dinkelbach
   iteration sweeps every residual vertex, giving O(n²) total work on
   rings (pairs ~ n/5, iterations ~ 2n measured).  But the cost
   function decomposes over connected components, so the whole-mask
   solve factors exactly:

   - α* of the residual mask is the minimum over components c of the
     per-component ratio α_c, and α_c only depends on the component's
     own vertices — untouched components keep their solution across
     pairs.  A lazy-deletion min-heap over (α_c, component) yields each
     pair's α* without re-solving anything.
   - the maximal minimiser of the whole mask at α* is the union of
       (a) the maximal minimisers of the components with α_c = α*,
       (b) every vertex of the all-zero-weight components (any subset
           of them costs 0 = their minimum), and
       (c) in the other positive components, the vertices of weight 0
           whose in-component neighbours all have weight 0: those are
           exactly the members of cost-0 sets when the component
           minimum is 0, i.e. while α* < α_c.
     (Γ distributes over unions, so the union of minimisers is the
     maximal minimiser; see DESIGN.md §14.)

   Each pair removes B ∪ Γ(B) and only the touched components are
   re-cut into alive runs and re-solved, so total work is
   O(Σ solved-component sizes) — O(n log n)-ish on random weights
   instead of O(n²).

   The memory discipline matters as much as the asymptotics at n = 10⁶:

   - components never copy vertex arrays.  Every fragment of a chain
     component is a circular subrange of that component's original
     vertex order, so a component is (base, start, len) into one shared
     [order] array and fragmentation is subrange arithmetic;
   - weights are scaled once, globally, to integers W_v = D·w_v
     (D = lcm of the denominators, ΣW ≤ 2^29), so per-solve setup is an
     int copy with no Bigint traffic.  When the graph as a whole does
     not fit, per-component scaling takes over, and when a component
     does not fit either, the fallback scales it once to Bigint weights
     and runs the Chain_fast DP kernel at scale q·D;
   - the DP runs on flat int tables in reusable scratch buffers, and
     minimiser members land in a reusable position buffer instead of a
     per-iteration list (Dinkelbach.solve_poly at ['set = unit]).

   Both oracles share one warm-started per-component Dinkelbach
   ([descend]) and leave their members in the same scratch buffer.

   Dinkelbach converges to exactly α_c with the maximal minimiser of
   the final oracle call, independent of its starting point, so
   per-component iteration produces bit-identical pairs to the
   whole-mask iteration: both sides are pure functions of the residual
   mask.  The differential battery pins this against the generic loop
   (Decompose.For_testing.compute_generic). *)

let parallel_comps_min = 16

let c_driver =
  Obs.Counter.make ~subsystem:"decomposition" "chain_driver_computes"

let c_solves =
  Obs.Counter.make ~subsystem:"decomposition" "chain_driver_component_solves"

let c_int_dp =
  Obs.Counter.make ~subsystem:"decomposition" "chain_driver_int_dp_solves"

let c_q_fallback =
  Obs.Counter.make ~subsystem:"decomposition" "chain_driver_q_fallback_solves"

(* Shared with Chain_fast: the registry is keyed by name, so this is the
   same counter / failpoint the whole-mask oracle uses — oracle-call
   accounting stays uniform whichever path runs. *)
let c_oracle =
  Obs.Counter.make ~subsystem:"decomposition" "fastchain_oracle_calls"

let fp_iter = Failpoint.register "solver.fastchain.iter"

(* ------------------------------------------------------------------ *)
(* Allocation-lean scaled-integer DP kernel                            *)
(* ------------------------------------------------------------------ *)

(* The Chain_fast kernel ([Chain_fast.Make]) is generic in its cost
   algebra and carries boxed option tables.  This is the one copy of its
   DP specialised by hand, because the decomposition driver is its
   hottest caller and the compiler does not inline through a functor:
   the same DP on flat int arrays in reusable scratch buffers.  With
   scaled weights W_i and costs carried at scale q·D for the current
   α = p/q, Γ-charges pay +q·W_i and S-terms −p·W_i.  With ΣW ≤ 2^29
   (enforced by the scalers below) and q ≤ ΣW, p ≤ q (α ≤ 1
   throughout), every table entry is bounded by 2·q·ΣW ≤ 2^59,
   comfortably inside 63-bit ints.  Unreachable states carry
   [sentinel]. *)

(* The backward direction is never materialised: it rolls as a 4-state
   row fused with the position combine, so one oracle call streams the
   forward table once on the way out and once on the way back instead of
   writing and re-reading a second table — at k = 10⁶ that halves the
   memory traffic, which is what bounds the giant-component solves. *)
type scratch = {
  mutable cap : int;
  mutable wi : int array;  (* scaled weights, component order *)
  mutable fwd : int array;  (* flat DP table: state st of pos i at 4i+st *)
  mutable forced : int array;  (* per-position forced-membership minima *)
  mutable mem : int array;  (* minimiser positions of the last oracle call *)
  mutable mlen : int;
  mutable gmark : bool array;  (* Γ-dedup marks for iter_members *)
}

let make_scratch () =
  {
    cap = 0;
    wi = [||];
    fwd = [||];
    forced = [||];
    mem = [||];
    mlen = 0;
    gmark = [||];
  }

let ensure sc k =
  if k > sc.cap then begin
    let cap = Int.max k (Int.max 16 (2 * sc.cap)) in
    sc.cap <- cap;
    sc.wi <- Array.make cap 0;
    sc.fwd <- Array.make (2 * cap) 0;
    sc.forced <- Array.make cap 0;
    sc.mem <- Array.make cap 0;
    sc.mlen <- 0;
    sc.gmark <- Array.make cap false
  end

let sentinel = max_int
let add_c a b = if a = sentinel then sentinel else a + b

(* Dinkelbach only consults the sign of h, so the int oracle reports it
   through shared constants instead of allocating [m / (q·D)]. *)
let q_neg_one = Q.of_ints (-1) 1

let q_of_sign m = if m < 0 then q_neg_one else if m > 0 then Q.one else Q.zero

(* The DP states encode (s_i, Γ-charge of v_i already paid from the
   left), as in the Chain_fast kernel; the forward transitions below are
   its [forward] cases at integer scale.  The backward row differs from
   the kernel's suffix table: it runs the forward recurrence from the
   right end, so it includes position i's own terms, which the combine
   corrects for.  Sweeps roll all four states in locals; the forward
   sweep stores only the two s = true states per position (the combine
   never reads the others), so one oracle call streams 2 stored ints per
   position each way. *)

(* Forced-membership combine at one position: the forward prefix row
   (f2/f3 = the s_i = true states) against the rolling backward suffix
   row (r2/r3).  Both rows carry the vertex's −p·W_v term, so one copy
   [pw] is added back; when both sides paid the vertex's Γ charge (odd
   states on both) it is deducted once [qw]. *)
let forced_min f2 f3 r2 r3 ~pw ~qw =
  let best = ref sentinel in
  if f2 <> sentinel then begin
    if r2 <> sentinel then begin
      let t = f2 + r2 + pw in
      if t < !best then best := t
    end;
    if r3 <> sentinel then begin
      let t = f2 + r3 + pw in
      if t < !best then best := t
    end
  end;
  if f3 <> sentinel then begin
    if r2 <> sentinel then begin
      let t = f3 + r2 + pw in
      if t < !best then best := t
    end;
    if r3 <> sentinel then begin
      let t = f3 + r3 + pw - qw in
      if t < !best then best := t
    end
  end;
  !best

(* Component minimum over NONEMPTY sets at scale q·D (the empty set's
   cost 0 is excluded so that a probe below α_c reports a positive
   minimum instead of flooring at 0); maximal-minimiser positions land
   in [sc.mem] (ascending), [sc.mlen].  Every nonempty set contains some
   position, so the nonempty minimum is the min over positions of the
   forced-membership minima — which the member scan needs anyway. *)
let oracle_path_int sc k ~p ~q =
  let w = sc.wi in
  let f = sc.fwd in
  (* forward sweep: roll all four states, store the s = true pair *)
  let c0 = ref 0
  and c1 = ref sentinel
  and c2 = ref (-(p * w.(0)))
  and c3 = ref sentinel in
  f.(0) <- !c2;
  f.(1) <- !c3;
  for i = 1 to k - 1 do
    let a0 = !c0 and a1 = !c1 and a2 = !c2 and a3 = !c3 in
    let qwp = q * w.(i - 1) and qwc = q * w.(i) and pwc = p * w.(i) in
    c0 := Int.min a0 a1;
    c1 := add_c (Int.min a2 a3) qwc;
    c2 := add_c (Int.min (add_c a0 qwp) a1) (-pwc);
    c3 := add_c (Int.min (add_c a2 qwp) a3) (qwc - pwc);
    f.(2 * i) <- !c2;
    f.((2 * i) + 1) <- !c3
  done;
  (* backward suffix row rolling from the right end, fused with the
     combine and the member collection (reset-on-better-min) *)
  let m = ref sentinel in
  sc.mlen <- 0;
  let b0 = ref 0
  and b1 = ref sentinel
  and b2 = ref (-(p * w.(k - 1)))
  and b3 = ref sentinel in
  for i = k - 1 downto 0 do
    if i < k - 1 then begin
      (* extend the suffix row by v_i (reversed-order sweep step) *)
      let a0 = !b0 and a1 = !b1 and a2 = !b2 and a3 = !b3 in
      let qwp = q * w.(i + 1) and qwc = q * w.(i) and pwc = p * w.(i) in
      b0 := Int.min a0 a1;
      b1 := add_c (Int.min a2 a3) qwc;
      b2 := add_c (Int.min (add_c a0 qwp) a1) (-pwc);
      b3 := add_c (Int.min (add_c a2 qwp) a3) (qwc - pwc)
    end;
    let c =
      forced_min f.(2 * i)
        f.((2 * i) + 1)
        !b2 !b3 ~pw:(p * w.(i))
        ~qw:(q * w.(i))
    in
    if c < !m then begin
      m := c;
      sc.mem.(0) <- i;
      sc.mlen <- 1
    end
    else if Int.equal c !m && c <> sentinel then begin
      sc.mem.(sc.mlen) <- i;
      sc.mlen <- sc.mlen + 1
    end
  done;
  !m

(* Cycles: cut between positions k-1 and 0 and condition on the boundary
   memberships (a, b) = (s_0, s_{k-1}), pre-paying the wrap-edge charges
   in the initial tables — the int-scale mirror of the cycle branch of
   the Chain_fast kernel. *)
let oracle_cycle_int sc k ~p ~q =
  let w = sc.wi in
  let f = sc.fwd and forced = sc.forced in
  Array.fill forced 0 k sentinel;
  List.iter
    (fun (a, bb) ->
      (* forward sweep under the (s_0, Γ-paid-by-wrap) combo init *)
      let finit =
        (if bb then q * w.(0) else 0) - if a then p * w.(0) else 0
      in
      let c0 = ref sentinel
      and c1 = ref sentinel
      and c2 = ref sentinel
      and c3 = ref sentinel in
      (match ((if a then 2 else 0) + if bb then 1 else 0) with
      | 0 -> c0 := finit
      | 1 -> c1 := finit
      | 2 -> c2 := finit
      | _ -> c3 := finit);
      f.(0) <- !c2;
      f.(1) <- !c3;
      for i = 1 to k - 1 do
        let a0 = !c0 and a1 = !c1 and a2 = !c2 and a3 = !c3 in
        let qwp = q * w.(i - 1) and qwc = q * w.(i) and pwc = p * w.(i) in
        c0 := Int.min a0 a1;
        c1 := add_c (Int.min a2 a3) qwc;
        c2 := add_c (Int.min (add_c a0 qwp) a1) (-pwc);
        c3 := add_c (Int.min (add_c a2 qwp) a3) (qwc - pwc);
        f.(2 * i) <- !c2;
        f.((2 * i) + 1) <- !c3
      done;
      let b0 = ref sentinel
      and b1 = ref sentinel
      and b2 = ref sentinel
      and b3 = ref sentinel in
      let binit =
        (if a then q * w.(k - 1) else 0) - if bb then p * w.(k - 1) else 0
      in
      (match ((if bb then 2 else 0) + if a then 1 else 0) with
      | 0 -> b0 := binit
      | 1 -> b1 := binit
      | 2 -> b2 := binit
      | _ -> b3 := binit);
      for i = k - 1 downto 0 do
        if i < k - 1 then begin
          let a0 = !b0 and a1 = !b1 and a2 = !b2 and a3 = !b3 in
          let qwp = q * w.(i + 1) and qwc = q * w.(i) and pwc = p * w.(i) in
          b0 := Int.min a0 a1;
          b1 := add_c (Int.min a2 a3) qwc;
          b2 := add_c (Int.min (add_c a0 qwp) a1) (-pwc);
          b3 := add_c (Int.min (add_c a2 qwp) a3) (qwc - pwc)
        end;
        (* boundary positions have their membership fixed by (a, b) *)
        if (i > 0 || a) && (i < k - 1 || bb) then begin
          let cf =
            forced_min f.(2 * i)
              f.((2 * i) + 1)
              !b2 !b3 ~pw:(p * w.(i))
              ~qw:(q * w.(i))
          in
          if cf < forced.(i) then forced.(i) <- cf
        end
      done)
    [ (false, false); (false, true); (true, false); (true, true) ];
  let m = ref sentinel in
  for i = 0 to k - 1 do
    if forced.(i) < !m then m := forced.(i)
  done;
  let m = !m in
  sc.mlen <- 0;
  for i = 0 to k - 1 do
    if Int.equal forced.(i) m then begin
      sc.mem.(sc.mlen) <- i;
      sc.mlen <- sc.mlen + 1
    end
  done;
  m

let scale_bound = 1 lsl 29

(* Scale the weights of [vertex 0..count-1] to integers W_i = D·w_i with
   ΣW ≤ 2^29, writing into [out]; returns D, or None when they don't
   fit (infinite weight, huge denominators or sums). *)
let scale_weights g vertex count out =
  let rec lcm_den i l =
    if i >= count then Some l
    else
      let d = Q.den (Graph.weight g (vertex i)) in
      if Bigint.is_zero d then None
      else
        let g0 = Bigint.gcd l d in
        let l' = Bigint.mul (Bigint.div l g0) d in
        match Bigint.to_int l' with
        | Some li when li <= scale_bound -> lcm_den (i + 1) l'
        | _ -> None
  in
  match lcm_den 0 Bigint.one with
  | None -> None
  | Some l ->
      let rec fill i sum =
        if i >= count then Some (Bigint.to_int_exn l)
        else
          let wq = Graph.weight g (vertex i) in
          let wb = Bigint.mul (Q.num wq) (Bigint.div l (Q.den wq)) in
          match Bigint.to_int wb with
          | Some wv when wv >= 0 && sum + wv <= scale_bound ->
              out.(i) <- wv;
              fill (i + 1) (sum + wv)
          | _ -> None
      in
      fill 0 0

(* Walk the member positions in [sc.mem]: [self i] once per member and
   [gamma j] once per distinct position of their in-component Γ
   (inclusive), deduplicated through [sc.gmark]. *)
let iter_members sc ~cycle k ~self ~gamma =
  let gm = sc.gmark in
  let nb_iter i f =
    if cycle then begin
      f ((i + k - 1) mod k);
      f ((i + 1) mod k)
    end
    else begin
      if i > 0 then f (i - 1);
      if i < k - 1 then f (i + 1)
    end
  in
  let touch j =
    if not gm.(j) then begin
      gm.(j) <- true;
      gamma j
    end
  in
  for x = 0 to sc.mlen - 1 do
    let i = sc.mem.(x) in
    self i;
    nb_iter i touch
  done;
  for x = 0 to sc.mlen - 1 do
    nb_iter sc.mem.(x) (fun j -> gm.(j) <- false)
  done

(* α-ratio of the member positions in [sc.mem]: Γ weights over member
   weights, at the integer scale (the common D cancels). *)
let ratio_of_members sc ~cycle k =
  let w = sc.wi in
  let sw = ref 0 and gw = ref 0 in
  iter_members sc ~cycle k
    ~self:(fun i -> sw := !sw + w.(i))
    ~gamma:(fun j -> gw := !gw + w.(j));
  Q.of_ints !gw !sw

(* The same ratio over the fallback's Bigint weights. *)
let ratio_of_members_big sc ~cycle k ws =
  let sw = ref Bigint.zero and gw = ref Bigint.zero in
  iter_members sc ~cycle k
    ~self:(fun i -> sw := Bigint.add !sw ws.(i))
    ~gamma:(fun j -> gw := Bigint.add !gw ws.(j));
  Q.make !gw !sw

(* The fallback's oracle call: the Chain_fast kernel over Bigint costs at
   scale q·D, reduced to what the int oracles report.  That is the
   minimum over NONEMPTY sets, i.e. the least forced-membership minimum,
   with its positions in [sc.mem]; only its sign is returned. *)
let oracle_scaled sc ws ~cycle ~alpha =
  let _, forced = Chain_fast.solve_scaled ~cycle ws ~alpha in
  let m = ref None in
  sc.mlen <- 0;
  Array.iteri
    (fun i f ->
      match f with
      | None -> ()
      | Some c ->
          let s = match !m with None -> -1 | Some b -> Bigint.compare c b in
          if s < 0 then begin
            m := f;
            sc.mlen <- 0
          end;
          if s <= 0 then begin
            sc.mem.(sc.mlen) <- i;
            sc.mlen <- sc.mlen + 1
          end)
    forced;
  match !m with
  | Some m -> Bigint.sign m
  | None ->
      Ringshare_error.(error (Infeasible_dp "Chain_decompose: empty table"))

(* ------------------------------------------------------------------ *)
(* Per-component Dinkelbach                                            *)
(* ------------------------------------------------------------------ *)

(* An α fits the int DP when p/q both fit small ints; q ≤ 2^29 keeps the
   cost bound at 2·q·ΣW ≤ 2^59 even when [alpha] came from a parent
   component scaled with a different denominator. *)
let int_alpha alpha =
  match (Bigint.to_int (Q.num alpha), Bigint.to_int (Q.den alpha)) with
  | Some p, Some q when q > 0 && q <= scale_bound && p >= 0 && p <= q ->
      Some (p, q)
  | _ -> None

(* α_c of one positive component of [k] positions, whichever oracle runs.
   [call ~alpha] is one oracle call: it returns the sign (as an int) of
   the component minimum over nonempty sets at α and leaves that
   minimum's positions in [sc.mem]; [alpha_of ()] is their ratio.

   [warm] is the parent component's α_c, used as the first probe point
   when the oracle can take it.  Dinkelbach's answer does not depend on
   the trajectory — h(α) = 0 iff α = α_c, and the final oracle call at
   α_c returns the maximal minimiser — so probing below α_c is
   recoverable: a positive nonempty minimum certifies α < α_c, and the
   probe's minimiser has ratio r ≥ α_c, a valid restart.  A fragment
   differs from its parent by a small removed region, so its α_c is
   usually adjacent to the parent's and the solve finishes in ~2 sweeps
   instead of a full descent from 1. *)
let descend ~budget ~k ~warm ~call ~alpha_of =
  let oracle ~alpha = (q_of_sign (call ~alpha), ()) in
  let run start = snd (Dinkelbach.solve_poly ~budget ~oracle ~alpha_of start) in
  if Int.equal k 1 then
    (* isolated vertex: Γ = ∅, so α_c = 0 — one confirming call *)
    run Q.zero
  else
    match warm with
    | None -> run Q.one
    | Some warm ->
        if Int.equal (call ~alpha:warm) 0 then warm
        else
          (* negative: ordinary descent continues at the minimiser's
             ratio.  Positive: warm < α_c; jump up to the minimiser's
             ratio r ≥ α_c (clamped to the always-valid 1 if the
             minimiser had zero weight). *)
          let r = alpha_of () in
          run (if Q.compare r Q.one < 0 then r else Q.one)

(* (α_c, maximal-bottleneck vertex ids) of one positive component given
   by [vertex : position -> id].  [scaled] carries the global scaling
   (denominator, per-vertex-id ints) when the whole graph fits; when it
   does not, the component is scaled on its own, and if even that does
   not fit the int DP, it is scaled once to Bigint weights for the
   Chain_fast kernel.  Both oracles leave their members in [sc]: no
   shared state, safe under Parwork sharding.  Instrumentation matches
   the whole-mask oracle: the shared failpoint, the shared oracle
   counter, and a budget tick of 1 + component size per oracle call. *)
let solve_positive g scaled budget sc ~vertex ~k ~cycle ~warm =
  Obs.Counter.incr c_solves;
  ensure sc k;
  let d_opt =
    match scaled with
    | Some (d, gw) ->
        for i = 0 to k - 1 do
          sc.wi.(i) <- gw.(vertex i)
        done;
        Some d
    | None -> scale_weights g vertex k sc.wi
  in
  let tick () =
    Failpoint.hit fp_iter;
    Obs.Counter.incr c_oracle;
    Budget.tick ~cost:(1 + k) budget
  in
  let alpha =
    match d_opt with
    | Some _ ->
        Obs.Counter.incr c_int_dp;
        let call ~alpha =
          tick ();
          let p = Bigint.to_int_exn (Q.num alpha) in
          let q = Bigint.to_int_exn (Q.den alpha) in
          if cycle then oracle_cycle_int sc k ~p ~q
          else oracle_path_int sc k ~p ~q
        in
        descend ~budget ~k
          ~warm:(if Option.is_some (int_alpha warm) then Some warm else None)
          ~call
          ~alpha_of:(fun () -> ratio_of_members sc ~cycle k)
    | None ->
        Obs.Counter.incr c_q_fallback;
        let _, ws =
          Chain_fast.scale (Array.init k (fun i -> Graph.weight g (vertex i)))
        in
        let call ~alpha =
          tick ();
          oracle_scaled sc ws ~cycle ~alpha
        in
        descend ~budget ~k ~warm:(Some warm) ~call
          ~alpha_of:(fun () -> ratio_of_members_big sc ~cycle k ws)
  in
  (alpha, Array.init sc.mlen (fun x -> vertex sc.mem.(x)))

(* ------------------------------------------------------------------ *)
(* Component registry, heap and the pair loop                          *)
(* ------------------------------------------------------------------ *)

(* A component is a circular subrange of its original chain component's
   vertex order: position j ↦ order.(base + (start + j) mod k0).  Chain
   fragmentation preserves this shape (alive runs of a subrange are
   subranges; a cycle's wrap-around run is one circular subrange), so no
   component ever copies a vertex array. *)
type comp = {
  base : int;  (* offset of the original component in [order] *)
  k0 : int;  (* original component length (circular modulus) *)
  start : int;  (* fragment start position within the original *)
  len : int;
  cycle : bool;
  warm : Q.t;  (* parent α_c: the solver's first probe point *)
  mutable alpha : Q.t;  (* own α_c once solved, inherited by fragments *)
  mutable alive : bool;
  mutable touched : bool;
  mutable bmem : int array;  (* maximal bottleneck, vertex ids *)
  zc : int list;  (* zero vertices with all-zero in-component Γ *)
}

(* Binary min-heap of (α_c, component index) with lazy deletion; ties
   break on the index so pop order is a function of the keys alone.

   Keys carry the α as a reduced int pair (kn/kd) whenever it fits
   [int_alpha]: num and den are ≤ 2^29, so the cross products of the
   comparison fit native ints and the hot heap ops never touch Bigint.
   The exact rational rides along for the rare fallback alphas (kn = -1
   marks them).  Equal rationals always get the same key form, so the
   mixed case only arises for genuinely different values. *)
type entry = { kn : int; kd : int; kq : Q.t; ki : int }

let entry_of alpha ki =
  match int_alpha alpha with
  | Some (p, q) -> { kn = p; kd = q; kq = alpha; ki }
  | None -> { kn = -1; kd = 1; kq = alpha; ki }

let same_alpha e1 e2 =
  if e1.kn >= 0 && e2.kn >= 0 then
    Int.equal e1.kn e2.kn && Int.equal e1.kd e2.kd
  else e1.kn < 0 && e2.kn < 0 && Q.equal e1.kq e2.kq

module Hp = struct
  type t = { mutable a : entry array; mutable len : int }

  let dummy = { kn = 0; kd = 1; kq = Q.zero; ki = 0 }
  let create () = { a = Array.make 64 dummy; len = 0 }

  let less e1 e2 =
    let c =
      if e1.kn >= 0 && e2.kn >= 0 then
        Int.compare (e1.kn * e2.kd) (e2.kn * e1.kd)
      else Q.compare e1.kq e2.kq
    in
    c < 0 || (Int.equal c 0 && e1.ki < e2.ki)

  let push h x =
    if Int.equal h.len (Array.length h.a) then begin
      let bigger = Array.make (2 * h.len) h.a.(0) in
      Array.blit h.a 0 bigger 0 h.len;
      h.a <- bigger
    end;
    h.a.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      if less h.a.(!i) h.a.(p) then begin
        let t = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- t;
        i := p
      end
      else moving := false
    done

  let peek h = if Int.equal h.len 0 then None else Some h.a.(0)

  let pop h =
    if h.len > 0 then begin
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        let i = ref 0 in
        let moving = ref true in
        while !moving do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let m = ref !i in
          if l < h.len && less h.a.(l) h.a.(!m) then m := l;
          if r < h.len && less h.a.(r) h.a.(!m) then m := r;
          if Int.equal !m !i then moving := false
          else begin
            let t = h.a.(!m) in
            h.a.(!m) <- h.a.(!i);
            h.a.(!i) <- t;
            i := !m
          end
        done
      end
    end
end

let compute ~ctx ~on_pair g =
  Obs.Counter.incr c_driver;
  let n = Graph.n g in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let domains = ctx.Engine.Ctx.domains in
  let sc = make_scratch () in
  (* one global scaling pass: per-solve setup becomes an int copy *)
  let gweights = Array.make (Int.max n 1) 0 in
  let scaled =
    match scale_weights g (fun v -> v) n gweights with
    | Some d -> Some (d, gweights)
    | None -> None
  in
  let wz =
    match scaled with
    | Some (_, gw) -> fun v -> Int.equal gw.(v) 0
    | None -> fun v -> Q.is_zero (Graph.weight g v)
  in
  (* pair α-ratios come from the same scaled int sums as the DP:
     Σ W = D·Σ w exactly, so W(C)/W(B) reduces to the same canonical
     rational as pair_alpha's Q.div of the unscaled sums *)
  let has_iw, iw =
    match scaled with Some (_, gw) -> (true, gw) | None -> (false, [||])
  in
  (* degree-≤2 neighbour table, flat: nb.(2v), nb.(2v+1) or -1 *)
  let nb = Array.make (2 * n) (-1) in
  for v = 0 to n - 1 do
    let d = ref 0 in
    Graph.iter_neighbors g v (fun u ->
        if !d < 2 then nb.((2 * v) + !d) <- u;
        incr d);
    if !d > 2 then
      invalid_arg "Chain_decompose: graph has a vertex of degree > 2"
  done;
  let other_nb v prev =
    let a = nb.(2 * v) and b = nb.((2 * v) + 1) in
    if a <> -1 && a <> prev then a
    else if b <> -1 && b <> prev then b
    else -1
  in
  (* the shared component order: initial components, concatenated *)
  let order = Array.make (Int.max n 1) 0 in
  (* component registry *)
  let comps = ref (Array.make 64 None) in
  let ncomps = ref 0 in
  let nlive = ref 0 in
  let comp_of = Array.make n (-1) in
  let heap = Hp.create () in
  let zero_q = ref [] in
  let zc_q = ref [] in
  let get i = match !comps.(i) with Some c -> c | None -> assert false in
  let vat c j = order.(c.base + ((c.start + j) mod c.k0)) in
  let add_comp c =
    let cap = Array.length !comps in
    if Int.equal !ncomps cap then begin
      let bigger = Array.make (2 * cap) None in
      Array.blit !comps 0 bigger 0 cap;
      comps := bigger
    end;
    let idx = !ncomps in
    !comps.(idx) <- Some c;
    incr ncomps;
    for j = 0 to c.len - 1 do
      comp_of.(vat c j) <- idx
    done;
    incr nlive;
    idx
  in
  (* Register a freshly-cut alive subrange; returns the index of a
     positive component still needing its solve, or -1. *)
  let classify ~base ~k0 ~start ~len ~cycle ~warm =
    let vtx j = order.(base + ((start + j) mod k0)) in
    let all_zero = ref true in
    for j = 0 to len - 1 do
      if not (wz (vtx j)) then all_zero := false
    done;
    let mk zc =
      {
        base;
        k0;
        start;
        len;
        cycle;
        warm;
        alpha = Q.one;
        alive = true;
        touched = false;
        bmem = [||];
        zc;
      }
    in
    if !all_zero then begin
      let idx = add_comp (mk []) in
      zero_q := idx :: !zero_q;
      -1
    end
    else begin
      let zat j = wz (vtx j) in
      let zc = ref [] in
      for j = len - 1 downto 0 do
        if zat j then begin
          let ln =
            if cycle then zat ((j + len - 1) mod len)
            else j = 0 || zat (j - 1)
          in
          let rn =
            if cycle then zat ((j + 1) mod len)
            else j = len - 1 || zat (j + 1)
          in
          if ln && rn then zc := vtx j :: !zc
        end
      done;
      let idx = add_comp (mk !zc) in
      (match !zc with [] -> () | _ -> zc_q := idx :: !zc_q);
      idx
    end
  in
  (* Solve a batch of fresh positive components.  Independent solves
     shard across domains when the batch is large enough; the serial
     path reuses one scratch, the parallel path gives each task its own
     (results are pure functions of the component, so both paths are
     bit-identical — the sharding discipline of Engine.map_instances). *)
  let run_batch idxs =
    match idxs with
    | [] -> ()
    | _ ->
        let arr = Array.of_list idxs in
        let solve sc idx =
          let c = get idx in
          solve_positive g scaled budget sc ~vertex:(vat c) ~k:c.len
            ~cycle:c.cycle ~warm:c.warm
        in
        let results =
          if domains > 1 && Array.length arr >= parallel_comps_min then
            Parwork.map ~domains (fun idx -> solve (make_scratch ()) idx) arr
          else Array.map (fun idx -> solve sc idx) arr
        in
        Array.iteri
          (fun j (alpha, bmem) ->
            let c = get arr.(j) in
            c.alpha <- alpha;
            c.bmem <- bmem;
            Hp.push heap (entry_of alpha arr.(j)))
          results
  in
  (* initial components: walk each chain from an endpoint, or around the
     cycle from its lowest vertex, writing the order into [order] *)
  let seen = Array.make n false in
  let opos = ref 0 in
  let initial = ref [] in
  for v0 = 0 to n - 1 do
    if not seen.(v0) then begin
      let rec probe prev cur =
        let nxt = other_nb cur prev in
        if nxt = -1 then Some cur
        else if nxt = v0 then None (* wrapped around: cycle *)
        else probe cur nxt
      in
      let collect start =
        let base = !opos in
        let rec go prev cur =
          seen.(cur) <- true;
          order.(!opos) <- cur;
          incr opos;
          let nxt = other_nb cur prev in
          if nxt <> -1 && nxt <> start then go cur nxt
        in
        go (-1) start;
        (base, !opos - base)
      in
      let (base, len), cycle =
        match probe (-1) v0 with
        | Some endpoint -> (collect endpoint, false)
        | None -> (collect v0, true)
      in
      let si = classify ~base ~k0:len ~start:0 ~len ~cycle ~warm:Q.one in
      if si >= 0 then initial := si :: !initial
    end
  done;
  run_batch (List.rev !initial);
  (* pair loop *)
  let in_b = Array.make n false and in_c = Array.make n false in
  let pairs = ref [] in
  let rec heap_peek () =
    match Hp.peek heap with
    | None -> None
    | Some e ->
        if (get e.ki).alive then Some e
        else begin
          Hp.pop heap;
          heap_peek ()
        end
  in
  let rec loop () =
    if !nlive > 0 then begin
      on_pair ();
      (match heap_peek () with
      | None ->
          (* only zero-weight components left: the final pair takes
             everything, C = the vertices that still have a neighbour *)
          let bl = ref [] and cl = ref [] in
          let bn = ref 0 and cn = ref 0 in
          for v = n - 1 downto 0 do
            if comp_of.(v) >= 0 then begin
              bl := v :: !bl;
              incr bn;
              let linked = ref false in
              Graph.iter_neighbors g v (fun u ->
                  if comp_of.(u) >= 0 then linked := true);
              if !linked then begin
                cl := v :: !cl;
                incr cn
              end
            end
          done;
          Array.fill comp_of 0 n (-1);
          List.iter (fun idx -> (get idx).alive <- false) !zero_q;
          zero_q := [];
          nlive := 0;
          (* w(B) = 0 here, so pair_alpha's degenerate conventions apply;
             C ⊆ B makes B = C a cardinality check *)
          let alpha =
            if Int.equal !cn 0 then Q.zero
            else if Int.equal !bn !cn then Q.one
            else Q.inf
          in
          pairs := (Vset.of_list !bl, Vset.of_list !cl, alpha) :: !pairs
      | Some astar ->
          (* collect every live component at α* *)
          let mins = ref [] in
          let rec collect () =
            match heap_peek () with
            | Some e when same_alpha e astar ->
                Hp.pop heap;
                mins := e.ki :: !mins;
                collect ()
            | _ -> ()
          in
          collect ();
          (* B = min-component bottlenecks ∪ pending zero-run vertices
             ∪ every vertex of the zero components *)
          let bl = ref [] in
          let bn = ref 0 and swb = ref 0 in
          let add_b v =
            if not in_b.(v) then begin
              in_b.(v) <- true;
              incr bn;
              if has_iw then swb := !swb + iw.(v);
              bl := v :: !bl
            end
          in
          List.iter (fun idx -> Array.iter add_b (get idx).bmem) !mins;
          List.iter
            (fun idx ->
              let c = get idx in
              if c.alive then List.iter add_b c.zc)
            !zc_q;
          zc_q := [];
          List.iter
            (fun idx ->
              let c = get idx in
              if c.alive then
                for j = 0 to c.len - 1 do
                  add_b (vat c j)
                done)
            !zero_q;
          zero_q := [];
          (* C = Γ(B) within the residual mask (inclusive: B vertices
             with a B neighbour belong to C too) *)
          let cl = ref [] in
          let cn = ref 0 and swc = ref 0 in
          let add_g v =
            if not in_c.(v) then begin
              in_c.(v) <- true;
              incr cn;
              if has_iw then swc := !swc + iw.(v);
              cl := v :: !cl
            end
          in
          List.iter
            (fun v ->
              Graph.iter_neighbors g v (fun u ->
                  if comp_of.(u) >= 0 then add_g u))
            !bl;
          (* α = w(C)/w(B), from the scaled int sums when they exist
             (the in_b/in_c flags are still set, so B = C is a
             cardinality-plus-membership check) *)
          let degenerate () =
            if Int.equal !cn 0 then Q.zero
            else if
              Int.equal !bn !cn && List.for_all (fun v -> in_c.(v)) !bl
            then Q.one
            else Q.inf
          in
          let alpha =
            if has_iw then
              if !swb > 0 then Q.of_ints !swc !swb else degenerate ()
            else begin
              let sum =
                List.fold_left
                  (fun acc v -> Q.add acc (Graph.weight g v))
                  Q.zero
              in
              let wb = sum !bl in
              if Q.is_zero wb then degenerate () else Q.div (sum !cl) wb
            end
          in
          pairs := (Vset.of_list !bl, Vset.of_list !cl, alpha) :: !pairs;
          (* remove B ∪ C, fragment the touched components *)
          let touched = ref [] in
          let remove v =
            let ci = comp_of.(v) in
            if ci >= 0 then begin
              let c = get ci in
              if not c.touched then begin
                c.touched <- true;
                touched := ci :: !touched
              end;
              comp_of.(v) <- -1
            end
          in
          List.iter remove !bl;
          List.iter remove !cl;
          List.iter (fun v -> in_b.(v) <- false) !bl;
          List.iter (fun v -> in_c.(v) <- false) !cl;
          let batch = ref [] in
          List.iter
            (fun ci ->
              let c = get ci in
              c.alive <- false;
              decr nlive;
              let k = c.len in
              let alive_at j = comp_of.(vat c j) >= 0 in
              (* maximal alive runs, in fragment-position space *)
              let runs = ref [] in
              let j = ref 0 in
              while !j < k do
                if alive_at !j then begin
                  let s = !j in
                  while !j < k && alive_at !j do
                    incr j
                  done;
                  runs := (s, !j - s) :: !runs
                end
                else incr j
              done;
              let runs = List.rev !runs in
              (* a cycle alive at both array ends wraps: merge the last
                 run into the first (some vertex was removed, so the
                 merge is a path, never the full cycle) *)
              let runs =
                match runs with
                | (0, l0) :: rest when c.cycle && alive_at (k - 1) -> (
                    match List.rev rest with
                    | (sl, ll) :: mid_rev when Int.equal (sl + ll) k ->
                        (sl, ll + l0) :: List.rev mid_rev
                    | _ -> runs)
                | _ -> runs
              in
              List.iter
                (fun (s, l) ->
                  let si =
                    classify ~base:c.base ~k0:c.k0
                      ~start:((c.start + s) mod c.k0)
                      ~len:l ~cycle:false ~warm:c.alpha
                  in
                  if si >= 0 then batch := si :: !batch)
                runs)
            !touched;
          run_batch (List.rev !batch));
      loop ()
    end
  in
  loop ();
  List.rev !pairs
