module Q = Rational

(* ------------------------------------------------------------------ *)
(* Exact structure-constant pieces and events (DESIGN §16)             *)
(* ------------------------------------------------------------------ *)

type exact_piece = {
  xlo : Qx.t;
  xhi : Qx.t;
  sample : Q.t;
  structure : Decompose.t;
}

type exact_event = { at : Qx.t; left : Decompose.t; right : Decompose.t }

(* Every candidate boundary is a degree-≤2 polynomial kept as an integer
   coefficient triple (a, b, c) for a·y² + b·y + c in the scaled
   parameter y = D·x (D a common denominator of the weights, the total
   and the sample), so every coefficient and every evaluation is a
   [Bigint] — no rational normalisation on the hot path. *)
module B = Bigint

let bsub3 (a1, b1, c1) (a2, b2, c2) = (B.sub a1 a2, B.sub b1 b2, B.sub c1 c2)
let beval3 (a, b, c) py = B.add (B.mul (B.add (B.mul a py) b) py) c

(* A scaled affine function of y, (const·D) + slope·y, as a triple. *)
let blin (c, s) = (B.zero, B.of_int s, c)

(* Product of two scaled affine functions of y. *)
let bamul (c1, s1) (c2, s2) =
  ( B.of_int (s1 * s2),
    B.add (B.mul_int c1 s2) (B.mul_int c2 s1),
    B.mul c1 c2 )

(* The primitive form of a non-constant triple: the content gcd divided
   out and the leading coefficient positive.  Scalar multiples share
   their roots, so they share one primitive form. *)
let primitive (a, b, c) =
  let g = B.gcd (B.gcd a b) c in
  let g = if B.sign a < 0 || (B.is_zero a && B.sign b < 0) then B.neg g else g in
  if B.equal g B.one then (a, b, c) else (B.div a g, B.div b g, B.div c g)

(* [primitive] on native ints, for the native-int replay. *)
let primitive_int a b c =
  let rec gcd x y = if y = 0 then abs x else gcd y (x mod y) in
  let g = gcd (gcd a b) c in
  let g = if a < 0 || (a = 0 && b < 0) then -g else g in
  (B.of_int (a / g), B.of_int (b / g), B.of_int (c / g))

(* Hash sets of triples emptied in O(1): a slot is live only while its
   stamp is the current generation, so [clear] bumps the generation.
   Linear probing over a power-of-two table that doubles at half load;
   slot i keeps its triple at keys.(3i .. 3i+2).  The sweep allocates
   its sets once and clears them per sample: per-sample tables past the
   minor heap's size limit are allocated straight on the major heap.
   [Prims] holds the primitive Bigint triples, one entry per distinct
   candidate; [Raws] the raw difference triples of the native-int
   replay, on an [int array] so every probe and store is a native
   compare and an unboxed write. *)
module Prims = struct
  type t = {
    mutable gen : int;
    mutable size : int;
    mutable stamps : int array;
    mutable keys : B.t array;
  }

  let create () =
    { gen = 1; size = 0; stamps = Array.make 64 0; keys = Array.make 192 B.zero }

  let clear t =
    t.gen <- t.gen + 1;
    t.size <- 0

  let length t = t.size

  (* add (a, b, c); true when it was not yet present *)
  let rec add t a b c =
    let mask = Array.length t.stamps - 1 and k = t.keys in
    let rec probe i =
      if not (Int.equal t.stamps.(i) t.gen) then i
      else if B.equal k.(3 * i) a && B.equal k.((3 * i) + 1) b
              && B.equal k.((3 * i) + 2) c
      then -1
      else probe ((i + 1) land mask)
    in
    let mix h x = (h * 0x9E3779B97F4A7C1) + B.hash x in
    let h = mix (mix (B.hash a) b) c in
    let i = probe ((h lxor (h lsr 29)) land mask) in
    if i < 0 then false
    else if 2 * (t.size + 1) > Array.length t.stamps then begin
      grow t;
      add t a b c
    end
    else begin
      t.stamps.(i) <- t.gen;
      k.(3 * i) <- a;
      k.((3 * i) + 1) <- b;
      k.((3 * i) + 2) <- c;
      t.size <- t.size + 1;
      true
    end

  and grow t =
    let stamps = t.stamps and keys = t.keys in
    t.stamps <- Array.make (2 * Array.length stamps) 0;
    t.keys <- Array.make (2 * Array.length keys) B.zero;
    t.size <- 0;
    Array.iteri
      (fun i s ->
        if Int.equal s t.gen then
          ignore (add t keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2)))
      stamps
end

module Raws = struct
  type t = {
    mutable gen : int;
    mutable size : int;
    mutable stamps : int array;
    mutable keys : int array;
  }

  let create () =
    { gen = 1; size = 0; stamps = Array.make 64 0; keys = Array.make 192 0 }

  let clear t =
    t.gen <- t.gen + 1;
    t.size <- 0

  let rec add t a b c =
    let mask = Array.length t.stamps - 1 and k = t.keys and gen = t.gen in
    let h = (((a * 0x9E3779B97F4A7C1) + b) * 0x9E3779B97F4A7C1) + c in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    (* stop at the triple, or at the free slot ending its probe run *)
    while
      Int.equal t.stamps.(!i) gen
      && not
           (Int.equal k.(3 * !i) a
           && Int.equal k.((3 * !i) + 1) b
           && Int.equal k.((3 * !i) + 2) c)
    do
      i := (!i + 1) land mask
    done;
    let i = !i in
    if Int.equal t.stamps.(i) gen then false
    else if 2 * (t.size + 1) > Array.length t.stamps then begin
      grow t;
      add t a b c
    end
    else begin
      t.stamps.(i) <- gen;
      k.(3 * i) <- a;
      k.((3 * i) + 1) <- b;
      k.((3 * i) + 2) <- c;
      t.size <- t.size + 1;
      true
    end

  and grow t =
    let stamps = t.stamps and keys = t.keys in
    t.stamps <- Array.make (2 * Array.length stamps) 0;
    t.keys <- Array.make (2 * Array.length keys) 0;
    t.size <- 0;
    Array.iteri
      (fun i s ->
        if Int.equal s t.gen then
          ignore (add t keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2)))
      stamps
end

module Masks = Hashtbl.Make (struct
  type t = Vset.t

  let equal = Vset.equal
  let hash s = Vset.fold (fun v h -> (h * 31) + v) s 0
end)

(* Scratch of the native-int replay, grown to the largest component it
   replays.  Every cost is four int lanes (a, b, c, v) — a·y² + b·y + c
   and its value v at the sample — at lanes 4i .. 4i+3 of its cell i:
   the gam/sch charges per position, the four take-in charges of
   [Flat.deltas] per position (cells 4·position + state), the F/B
   tables per (position, state) cell 4·position + state, and the forced
   minima per position, with the component minimum in cell k.  A
   presence byte per F/B/forced cell stands for the kernel's [None]. *)
type flat = {
  mutable cap : int;
  mutable gam : int array;
  mutable sch : int array;
  mutable dlt : int array;
  mutable fwd : int array;
  mutable bwd : int array;
  mutable fp : Bytes.t;
  mutable bp : Bytes.t;
  mutable fm : int array;
  mutable fmp : Bytes.t;
}

let ensure s k =
  if k > s.cap then begin
    let cap = Int.max k (Int.max 16 (2 * s.cap)) in
    s.cap <- cap;
    s.gam <- Array.make (4 * cap) 0;
    s.sch <- Array.make (4 * cap) 0;
    s.dlt <- Array.make (16 * cap) 0;
    s.fwd <- Array.make (16 * cap) 0;
    s.bwd <- Array.make (16 * cap) 0;
    s.fp <- Bytes.make (4 * cap) '\000';
    s.bp <- Bytes.make (4 * cap) '\000';
    s.fm <- Array.make (4 * (cap + 1)) 0;
    s.fmp <- Bytes.make (cap + 1) '\000'
  end

(* What one sweep's samples share: the components of each stage mask
   (the split graph's edges do not move with x, so neither do they),
   the two record-time dedupe sets and the candidate list, cleared per
   sample, and the native-int replay's scratch.  A sweep runs on one
   domain, so its scratch is never shared. *)
type tables = {
  comps : Chain_fast.component list Masks.t;
  raws : Raws.t;
  prims : Prims.t;
  mutable cands : (B.t * B.t * B.t) list;
  flat : flat;
}

let tables () =
  {
    comps = Masks.create 16;
    raws = Raws.create ();
    prims = Prims.create ();
    cands = [];
    flat =
      {
        cap = 0;
        gam = [||];
        sch = [||];
        dlt = [||];
        fwd = [||];
        bwd = [||];
        fp = Bytes.empty;
        bp = Bytes.empty;
        fm = [||];
        fmp = Bytes.empty;
      };
  }

let add_primitive t ((a, b, c) as q) =
  if Prims.add t.prims a b c then t.cands <- q :: t.cands

(* Sensitivity analysis of the greedy stages.  The stage-i solve finds
   the maximal minimiser of w(Γ(S)) − α_i·w(S) over the masked subgraph
   — one 4-state DP plus one forced-vertex probe per position, per
   component ([Chain_fast]).  While none of the comparison differences
   those DPs resolve changes sign, and none of the per-component minima
   or forced-vs-free gaps (which decide maximal-minimiser membership)
   crosses zero, every stage re-derives exactly the same pair, so the
   decomposition is constant.  The recorded roots are therefore a
   complete superset of the structure's event boundaries: basic shape
   conditions alone would miss a pair splitting when some proper
   subset's ratio crosses α_i, which only these DP gaps can see.

   The replay runs the [Chain_fast] kernel — the path DP or, for a
   component that is a whole ring, the cycle DP — with every partial cost
   carried as a quadratic in y, multiplied through by wb_i so the stage
   charge −α_i·w_u becomes the polynomial −wc_i·w_u.  Comparisons are
   resolved by the cost's value at the sample, which it carries beside
   its coefficients (ties keep the earlier branch), and every comparison
   records the difference p − q of its two costs.  Two copies: [Flat]
   on native ints when the sample's scale admits them (DESIGN §16,
   [int_replay_bound]), and [Boxed], the Bigint instance of the kernel,
   otherwise.  [stages] lists, per stage, the components to replay and
   the stage pair's weights (B, C) as scaled affine functions of y;
   [ws] holds the sample's scaled weights, [ytot] the scaled total, and
   [v2] is -1 when only [v1] varies. *)

(* The native-int replay: the [Chain_fast] kernel's comparisons, in its
   order, on the flat lanes.  [record] dedupes the raw difference
   before any gcd; only a new raw triple pays for its primitive form. *)
module Flat = struct
  let record t a b c =
    if (a <> 0 || b <> 0) && Raws.add t.raws a b c then
      add_primitive t (primitive_int a b c)

  let present p cell = Bytes.get p cell <> '\000'

  (* typed, so every store is a plain int write: a polymorphic [store]
     would go through the write barrier *)
  let store (tab : int array) o a b c v =
    tab.(o) <- a;
    tab.(o + 1) <- b;
    tab.(o + 2) <- c;
    tab.(o + 3) <- v

  (* cell ← better cell (a, b, c, v): an absent cell takes the
     candidate; a present one records its difference to it and keeps
     itself on a tie *)
  let offer t tab pres cell a b c v =
    let o = 4 * cell in
    if not (present pres cell) then begin
      Bytes.set pres cell '\001';
      store tab o a b c v
    end
    else begin
      let da = tab.(o) - a and db = tab.(o + 1) - b and dc = tab.(o + 2) - c in
      if tab.(o + 3) > v then store tab o a b c v;
      record t da db dc
    end

  (* The charge of taking s_j = true after position j−1 in state
     st = 2·s + counted: (1 − counted)·gam(j−1) + s·gam(j) − sch(j),
     into lanes 16j + 4st of [s.dlt], for 1 ≤ j < k.  The forward step
     into j and the backward step out of j−1 both pay it. *)
  let deltas s k =
    let g = s.gam and h = s.sch and d = s.dlt in
    for j = 1 to k - 1 do
      for l = 0 to 3 do
        let gp = g.((4 * (j - 1)) + l) and gj = g.((4 * j) + l)
        and hj = h.((4 * j) + l) and o = (16 * j) + l in
        d.(o) <- gp - hj;
        d.(o + 4) <- -hj;
        d.(o + 8) <- gp + gj - hj;
        d.(o + 12) <- gj - hj
      done
    done

  (* The kernel's [forward]: from state st = 2·s + counted at position
     i−1, leaving s_i out costs s·gam(i) and taking it in costs the
     delta of st at i. *)
  let forward t s k =
    let f = s.fwd and fp = s.fp and g = s.gam and d = s.dlt in
    for i = 1 to k - 1 do
      Bytes.fill fp (4 * i) 4 '\000';
      let r = 4 * i in
      for st = 0 to 3 do
        let cell = r - 4 + st in
        if present fp cell then begin
          let o = 4 * cell and dj = (16 * i) + (4 * st) in
          let qa = f.(o) and qb = f.(o + 1) and qc = f.(o + 2)
          and qv = f.(o + 3) in
          if st < 2 then offer t f fp r qa qb qc qv
          else
            offer t f fp (r + 1) (qa + g.(r)) (qb + g.(r + 1)) (qc + g.(r + 2))
              (qv + g.(r + 3));
          offer t f fp
            (r + 2 + (st lsr 1))
            (qa + d.(dj))
            (qb + d.(dj + 1))
            (qc + d.(dj + 2))
            (qv + d.(dj + 3))
        end
      done
    done

  (* The kernel's [backward]: position i in state st = 2·s + counted
     continues into s_{i+1} = false at s·gam(i+1), or into
     s_{i+1} = true at the delta of st at i+1. *)
  let backward t s k =
    let b = s.bwd and bp = s.bp and g = s.gam and d = s.dlt in
    for i = k - 2 downto 0 do
      Bytes.fill bp (4 * i) 4 '\000';
      let r = 4 * (i + 1) in
      for st = 0 to 3 do
        let cell = (4 * i) + st and sp = st lsr 1 in
        let n0 = r + sp in
        if present bp n0 then begin
          let o = 4 * n0 in
          if sp = 0 then offer t b bp cell b.(o) b.(o + 1) b.(o + 2) b.(o + 3)
          else
            offer t b bp cell
              (b.(o) + g.(r))
              (b.(o + 1) + g.(r + 1))
              (b.(o + 2) + g.(r + 2))
              (b.(o + 3) + g.(r + 3))
        end;
        let n1 = n0 + 2 in
        if present bp n1 then begin
          let o = 4 * n1 and dj = (16 * (i + 1)) + (4 * st) in
          offer t b bp cell
            (b.(o) + d.(dj))
            (b.(o + 1) + d.(dj + 1))
            (b.(o + 2) + d.(dj + 2))
            (b.(o + 3) + d.(dj + 3))
        end
      done
    done

  (* The kernel's [forced_at] offered into forced cell u: the better of
     the two combines F(u) + B(u) over the Γ-flag of u, states 2 and 3 *)
  let forced_at t s u =
    let f = s.fwd and b = s.bwd in
    let c0 = (4 * u) + 2 and c1 = (4 * u) + 3 in
    let p0 = present s.fp c0 && present s.bp c0
    and p1 = present s.fp c1 && present s.bp c1 in
    let o0 = 4 * c0 and o1 = 4 * c1 in
    if p0 && p1 then begin
      let a0 = f.(o0) + b.(o0) and b0 = f.(o0 + 1) + b.(o0 + 1)
      and x0 = f.(o0 + 2) + b.(o0 + 2) and v0 = f.(o0 + 3) + b.(o0 + 3) in
      let a1 = f.(o1) + b.(o1) and b1 = f.(o1 + 1) + b.(o1 + 1)
      and x1 = f.(o1 + 2) + b.(o1 + 2) and v1 = f.(o1 + 3) + b.(o1 + 3) in
      record t (a0 - a1) (b0 - b1) (x0 - x1);
      if v0 <= v1 then offer t s.fm s.fmp u a0 b0 x0 v0
      else offer t s.fm s.fmp u a1 b1 x1 v1
    end
    else if p0 || p1 then begin
      let o = if p0 then o0 else o1 in
      offer t s.fm s.fmp u
        (f.(o) + b.(o))
        (f.(o + 1) + b.(o + 1))
        (f.(o + 2) + b.(o + 2))
        (f.(o + 3) + b.(o + 3))
    end

  (* The kernel's [solve]: forced minima in cells 0 .. k−1 and the
     component minimum in cell k of [s.fm], in the kernel's order (on a
     path the forced minima come before the final fold: OCaml evaluates
     the kernel's result pair right to left). *)
  let solve t s ~cycle k =
    let f = s.fwd and b = s.bwd and g = s.gam and h = s.sch in
    Bytes.fill s.fmp 0 (k + 1) '\000';
    deltas s k;
    if not cycle then begin
      Bytes.fill s.fp 0 4 '\000';
      Bytes.set s.fp 0 '\001';
      store f 0 0 0 0 0;
      Bytes.set s.fp 2 '\001';
      store f 8 (-h.(0)) (-h.(1)) (-h.(2)) (-h.(3));
      Bytes.fill s.bp (4 * (k - 1)) 4 '\001';
      for st = 0 to 3 do
        store b (4 * ((4 * (k - 1)) + st)) 0 0 0 0
      done;
      forward t s k;
      backward t s k;
      for u = 0 to k - 1 do
        forced_at t s u
      done;
      for st = 0 to 3 do
        let cell = (4 * (k - 1)) + st in
        if present s.fp cell then begin
          let o = 4 * cell in
          offer t s.fm s.fmp k f.(o) f.(o + 1) f.(o + 2) f.(o + 3)
        end
      done
    end
    else
      (* cut between positions k−1 and 0, conditioned on
         (a, bb) = (s_0, s_{k−1}) as in the kernel *)
      for a = 0 to 1 do
        for bb = 0 to 1 do
          Bytes.fill s.fp 0 4 '\000';
          let cell = (2 * a) + bb in
          Bytes.set s.fp cell '\001';
          store f (4 * cell)
            ((bb * g.(0)) - (a * h.(0)))
            ((bb * g.(1)) - (a * h.(1)))
            ((bb * g.(2)) - (a * h.(2)))
            ((bb * g.(3)) - (a * h.(3)));
          let gl = 4 * (k - 1) in
          for st = 0 to 3 do
            let cell = (4 * (k - 1)) + st in
            if st lsr 1 <> bb then Bytes.set s.bp cell '\000'
            else begin
              Bytes.set s.bp cell '\001';
              let e = a * (1 - (st land 1)) in
              store b (4 * cell) (e * g.(gl))
                (e * g.(gl + 1))
                (e * g.(gl + 2))
                (e * g.(gl + 3))
            end
          done;
          forward t s k;
          backward t s k;
          for st = 0 to 3 do
            let cell = (4 * (k - 1)) + st in
            if present s.fp cell && present s.bp cell then begin
              let o = 4 * cell in
              offer t s.fm s.fmp k
                (f.(o) + b.(o))
                (f.(o + 1) + b.(o + 1))
                (f.(o + 2) + b.(o + 2))
                (f.(o + 3) + b.(o + 3))
            end
          done;
          for u = 0 to k - 1 do
            forced_at t s u
          done
        done
      done

  (* ω·P into lanes [o] for the scaled affine functions ω = cw + sw·y
     and P = cp + sp·y (slopes in {−1, 0, 1}), valued at [py] as the
     product of the two values *)
  let product lanes o ~py cw sw cp sp =
    store lanes o (sw * sp)
      ((sp * cw) + (sw * cp))
      (cw * cp)
      ((cw + (sw * py)) * (cp + (sp * py)))

  let run t ~ws ~py ~ytot ~v1 ~v2 stages =
    let s = t.flat in
    let py = B.to_int_exn py and ytot = B.to_int_exn ytot in
    let ws = Array.map B.to_int_exn ws in
    List.iter
      (fun (comps, (cb, sb), (cc, sc)) ->
        let cb = B.to_int_exn cb and cc = B.to_int_exn cc in
        List.iter
          (fun { Chain_fast.verts; cycle } ->
            let k = Array.length verts in
            ensure s k;
            Array.iteri
              (fun i u ->
                let sw = if u = v1 then 1 else if u = v2 then -1 else 0 in
                let cw = if u = v1 then 0 else if u = v2 then ytot else ws.(u) in
                product s.gam (4 * i) ~py cw sw cb sb;
                product s.sch (4 * i) ~py cw sw cc sc)
              verts;
            Obs.Span.with_ "dp" (fun () -> solve t s ~cycle k);
            if not (present s.fmp k) then
              Ringshare_error.(error (Infeasible_dp "Chain_fast: empty table"));
            (* the component minimum crossing zero changes which
               components achieve the stage ratio *)
            let fm = s.fm and m = 4 * k in
            record t fm.(m) fm.(m + 1) fm.(m + 2);
            for u = 0 to k - 1 do
              if present s.fmp u then
                let o = 4 * u in
                record t (fm.(o) - fm.(m))
                  (fm.(o + 1) - fm.(m + 1))
                  (fm.(o + 2) - fm.(m + 2))
            done)
          comps)
      stages
end

(* The Bigint replay: the [Chain_fast] kernel over boxed costs whose
   [better] records each comparison. *)
module Boxed = struct
  (* A replay cost: a·y² + b·y + c and its value v at the sample. *)
  type cost = { a : B.t; b : B.t; c : B.t; v : B.t }

  let map2 f p q =
    { a = f p.a q.a; b = f p.b q.b; c = f p.c q.c; v = f p.v q.v }

  let zero = { a = B.zero; b = B.zero; c = B.zero; v = B.zero }
  let signed s x = if s = 0 then B.zero else if s > 0 then x else B.neg x

  (* [Flat.product] on Bigint costs *)
  let product py (cw, sw) (cp, sp) =
    {
      a = signed (sw * sp) B.one;
      b = B.add (signed sp cw) (signed sw cp);
      c = B.mul cw cp;
      v = B.mul (B.add cw (signed sw py)) (B.add cp (signed sp py));
    }

  let run ~record ~ws ~py ~ytot ~v1 ~v2 stages =
    let record p q = record (B.sub p.a q.a, B.sub p.b q.b, B.sub p.c q.c) in
    let module Dp = Chain_fast.Make (struct
      type t = cost

      let zero = zero
      let add = map2 B.add
      let sub = map2 B.sub

      let better x y =
        match (x, y) with
        | None, z | z, None -> z
        | Some p, Some q ->
            record p q;
            if B.compare p.v q.v <= 0 then x else y
    end) in
    let affv u =
      if u = v1 then (B.zero, 1) else if u = v2 then (ytot, -1) else (ws.(u), 0)
    in
    List.iter
      (fun (comps, awb, awc) ->
        List.iter
          (fun { Chain_fast.verts; cycle } ->
            let gam = Array.map (fun u -> product py (affv u) awb) verts
            and sch = Array.map (fun u -> product py (affv u) awc) verts in
            let mq, forced =
              Obs.Span.with_ "dp" (fun () ->
                  Dp.solve ~cycle ~gam:(Array.get gam) ~sch:(Array.get sch)
                    (Array.length verts))
            in
            record mq zero;
            Array.iter (function None -> () | Some fq -> record fq mq) forced)
          comps)
      stages
end

(* The native-int replay's admission bound on T = D·(Σ fixed weights +
   total), which bounds the graph's weight sum in y-units at every
   parameter value: every coefficient, value and intermediate of the
   replay is at most 2·T² in magnitude (DESIGN §16), and this is the
   largest T with 2·T² ≤ max_int. *)
let int_replay_bound = B.to_int_exn (Qx.isqrt (B.of_int (max_int / 2)))

(* distinct non-constant DP comparison differences (primitive forms)
   recorded per [exact_candidates] call, summed: the stage replay's
   work, as an exact count *)
let c_dp_candidates = Obs.Counter.make ~subsystem:"breakpoints" "dp_candidates"

(* samples whose stage replay ran on native ints, and on Bigint *)
let c_int_replays = Obs.Counter.make ~subsystem:"breakpoints" "int_replays"
let c_bigint_replays =
  Obs.Counter.make ~subsystem:"breakpoints" "bigint_replays"

(* candidates whose real roots are extracted as surds by [Qx.roots2],
   summed over pieces *)
let c_root_extractions =
  Obs.Counter.make ~subsystem:"breakpoints" "root_extractions"

(* The candidate family of one sample, in y-coordinates: [d] is D, [py]
   and [ytot] the sample and the total, and [cands] the distinct
   primitive non-constant triples. *)
type candidates = {
  d : B.t;
  py : B.t;
  ytot : B.t;
  cands : (B.t * B.t * B.t) list;
}

(* Candidate boundary polynomials of a structure's validity interval
   around the rational sample [p]: the decomposition is [structure]
   exactly while
     - wb_i = 0, wc_i = 0        (pair weight degenerating),
     - wc_i - wb_i = 0           (alpha_i reaching 1),
     - wc_i*wb_{i+1} - wc_{i+1}*wb_i = 0   (adjacent alphas crossing)
   all keep their sign, together with the stage-DP differences from
   the stage replay (which make the family complete — see there).  A constant
   keeps its sign everywhere, so only triples with a nonzero y or y²
   coefficient are kept.  [v1] carries x and [v2] (-1 for none)
   total − x; [bigint] forces the Bigint replay. *)
let exact_candidates ~tables ~bigint path ~v1 ~v2 ~total ~p
    (structure : Decompose.t) =
  let weights = Graph.weights path in
  (* the common denominator D putting the family in integer
     coordinates y = D·x: weights, total and the sample all become
     integers under y *)
  let d =
    let lcm a b = B.mul (B.div a (B.gcd a b)) b in
    let acc = ref (lcm (Q.den total) (Q.den p)) in
    Array.iter (fun w -> acc := lcm !acc (Q.den w)) weights;
    !acc
  in
  let scale q = B.mul (Q.num q) (B.div d (Q.den q)) in
  let ws = Array.map scale weights in
  let py = scale p and ytot = scale total in
  (* each pair's weights (B, C) in the scaled affine view:
     value·D = (const·D) + slope·y, where v1 carries y and v2 the
     total minus y *)
  let aff set =
    let const =
      Vset.fold
        (fun u acc -> if u = v1 || u = v2 then acc else B.add acc ws.(u))
        set
        (if Vset.mem v2 set then ytot else B.zero)
    in
    (const, Bool.to_int (Vset.mem v1 set) - Bool.to_int (Vset.mem v2 set))
  in
  let pairs =
    List.map
      (fun (pr : Decompose.pair) -> (aff pr.Decompose.b, aff pr.Decompose.c))
      structure
  in
  (* The DP records one difference per comparison — hundreds of
     thousands on big paths, with heavy duplication (the same gap is
     re-compared along the path).  Dedupe at record time by primitive
     form, before any of them reaches the root selection. *)
  Raws.clear tables.raws;
  Prims.clear tables.prims;
  tables.cands <- [];
  let record ((a, b, _) as q) =
    if not (B.is_zero a && B.is_zero b) then add_primitive tables (primitive q)
  in
  Obs.Span.with_ "stage_replay" (fun () ->
      (* The stages to replay, each with its components.  A component
         that holds neither identity, at a stage whose pair weights do
         not move with x, has constant costs: every difference it could
         record is a constant, which has no root, so it is skipped. *)
      let components mask =
        match Masks.find_opt tables.comps mask with
        | Some comps -> comps
        | None ->
            let comps =
              Obs.Span.with_ "components" (fun () ->
                  Chain_fast.components path ~mask)
            in
            Masks.add tables.comps mask comps;
            comps
      in
      let mask = ref (Graph.full_mask path) in
      let stages =
        List.map2
          (fun (pr : Decompose.pair) (((_, sb) as awb), ((_, sc) as awc)) ->
            let pair_moves = sb <> 0 || sc <> 0 in
            let comps =
              List.filter
                (fun (comp : Chain_fast.component) ->
                  let identity u = u = v1 || u = v2 in
                  pair_moves || Array.exists identity comp.Chain_fast.verts)
                (components !mask)
            in
            mask := Vset.diff !mask (Vset.union pr.Decompose.b pr.Decompose.c);
            (comps, awb, awc))
          structure pairs
      in
      let t = ref ytot in
      Array.iteri (fun u wu -> if u <> v1 && u <> v2 then t := B.add !t wu) ws;
      if (not bigint) && B.compare !t (B.of_int int_replay_bound) <= 0
      then begin
        Obs.Counter.incr c_int_replays;
        Flat.run tables ~ws ~py ~ytot ~v1 ~v2 stages
      end
      else begin
        Obs.Counter.incr c_bigint_replays;
        Boxed.run ~record ~ws ~py ~ytot ~v1 ~v2 stages
      end);
  Obs.Counter.add c_dp_candidates (Prims.length tables.prims);
  List.iter
    (fun (b, c) ->
      record (blin b);
      record (blin c);
      record (bsub3 (blin c) (blin b)))
    pairs;
  let rec adjacent = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
        record (bsub3 (bamul c1 b2) (bamul c2 b1));
        adjacent rest
    | _ -> ()
  in
  adjacent pairs;
  { d; py; ytot; cands = tables.cands }

(* Nearest-root selection, first pass, in integers only.  A real root of
   a primitive triple is bracketed in y as [lo/den, hi/den] (den > 0);
   an irrational root's bracket comes from the integer square root of
   the discriminant and has width 1/(2a). *)
type bracket = { lo : B.t; hi : B.t; den : B.t }

(* n1/d1 ≤ n2/d2 for positive denominators *)
let qle (n1, d1) (n2, d2) = B.compare (B.mul n1 d2) (B.mul n2 d1) <= 0

(* The nearest real root on each side of the sample [py], bracketed, as
   [Some (left, right)]; [None] when [py] is itself a root.  Which side
   a root lies on follows from the signs of f(py) and f'(py) = 2a·py + b:
   with a > 0, f(py) < 0 puts one root on each side, and f(py) > 0 puts
   both on the side f' points away from. *)
let nearest_brackets py ((a, b, c) as q) =
  let fp = B.sign (beval3 q py) in
  if fp = 0 then None
  else if B.is_zero a then
    (* b > 0: f increases through its root −c/b *)
    let r = Some { lo = B.neg c; hi = B.neg c; den = b } in
    Some (if fp < 0 then (None, r) else (r, None))
  else
    let disc = B.sub (B.mul b b) (B.mul (B.mul_int a 4) c) in
    if B.sign disc < 0 then Some (None, None)
    else
      let s = Qx.isqrt disc in
      let e = if B.equal (B.mul s s) disc then B.zero else B.one in
      let den = B.mul_int a 2 and nb = B.neg b in
      (* r− ∈ [(−b−s−e)/2a, (−b−s)/2a], r+ ∈ [(−b+s)/2a, (−b+s+e)/2a] *)
      let rminus = { lo = B.sub (B.sub nb s) e; hi = B.sub nb s; den }
      and rplus = { lo = B.add nb s; hi = B.add (B.add nb s) e; den } in
      if fp < 0 then Some (Some rminus, Some rplus)
      else if B.sign (B.add (B.mul den py) b) > 0 then Some (Some rplus, None)
      else Some (None, Some rminus)

(* All real roots in (0, w) of the candidates that can bound the piece
   around the sample, or [None] when the sample sits on a root.  Only
   the nearest root on each side of the sample bounds the piece, so the
   first pass keeps a candidate only when its nearest-root bracket
   reaches U (the least upper bracket end on the right, capped at D·w)
   or L (the greatest lower end on the left, floored at 0).  The tests
   are non-strict: every candidate with a root equal to the bound
   survives, which matters because [Qx] keeps d only non-square, not
   square-free ([sqrt_q 8] prints [0+1*sqrt(8)], twice [sqrt_q 2] prints
   [0+2*sqrt(2)]), and the first of equal roots in the sorted order
   below is the one a piece reports.  The second pass is the exact
   route on the survivors: x-normalise (leading coefficient 1, roots
   unchanged), [sort_uniq], [Qx.roots2]. *)
let candidate_roots ~w { d; py; ytot; cands } =
  let exception On_root in
  match
    Obs.Span.with_ "root_select" (fun () ->
        List.map
          (fun q ->
            match nearest_brackets py q with
            | None -> raise On_root
            | Some sides -> (q, sides))
          cands)
  with
  | exception On_root -> None
  | bracketed ->
      let u = ref (ytot, B.one) and l = ref (B.zero, B.one) in
      List.iter
        (fun (_, (left, right)) ->
          Option.iter
            (fun r -> if not (qle !u (r.hi, r.den)) then u := (r.hi, r.den))
            right;
          Option.iter
            (fun r -> if not (qle (r.lo, r.den) !l) then l := (r.lo, r.den))
            left)
        bracketed;
      let reaches (left, right) =
        (match right with Some r -> qle (r.lo, r.den) !u | None -> false)
        || match left with Some r -> qle !l (r.hi, r.den) | None -> false
      in
      let survivors =
        List.filter_map
          (fun (q, sides) -> if reaches sides then Some q else None)
          bracketed
      in
      Obs.Span.with_ "root_extract" @@ fun () ->
      (* back to x-coordinates: a·y² + b·y + c with y = D·x is
         a·D²·x² + b·D·x + c *)
      let normalise (a, b, c) =
        if B.is_zero a then (Q.zero, Q.one, Q.make c (B.mul b d))
        else
          let ad = B.mul a d in
          (Q.one, Q.make b ad, Q.make c (B.mul ad d))
      in
      let cmp3 (a1, b1, c1) (a2, b2, c2) =
        match Q.compare a1 a2 with
        | 0 -> ( match Q.compare b1 b2 with 0 -> Q.compare c1 c2 | n -> n)
        | n -> n
      in
      let survivors = List.sort_uniq cmp3 (List.map normalise survivors) in
      Obs.Counter.add c_root_extractions (List.length survivors);
      Some
        (List.concat_map
           (fun (a, b, c) ->
             List.filter
               (fun r -> Qx.compare_q r Q.zero > 0 && Qx.compare_q r w < 0)
               (Qx.roots2 ~a ~b ~c))
           survivors)

(* A weight parameter x over [0, total]: [path_at x] is the degree-≤2
   graph with [v1] at weight x and, unless [v2] is -1, [v2] at
   total − x.  Everything downstream ([exact_candidates], the stage
   replay) only reads the varying ids, the total and the fixed weights,
   so one machinery serves the Sybil split parameter, a two-vertex
   weight slice and a single reported weight.  [cost] is the budget
   charge per sampled point. *)
type param = {
  path_at : Q.t -> Graph.t;
  v1 : int;
  v2 : int;
  total : Q.t;
  cost : int;
}

(* The maximal interval around the rational sample [p] on which the
   decomposition of [path_at p] keeps the structure observed at [p]. *)
let exact_piece_at_core ~tables ~bigint ~dctx { path_at; v1; v2; total = w; _ }
    p =
  let path = path_at p in
  let structure = Decompose.compute ~ctx:dctx path in
  let cands =
    exact_candidates ~tables ~bigint path ~v1 ~v2 ~total:w ~p structure
  in
  match candidate_roots ~w cands with
  | None ->
      (* the sample itself sits on a boundary: a degenerate point piece *)
      { xlo = Qx.of_q p; xhi = Qx.of_q p; sample = p; structure }
  | Some roots ->
      let xlo =
        List.fold_left
          (fun acc r ->
            if Qx.compare_q r p < 0 && Qx.compare acc r < 0 then r else acc)
          (Qx.of_q Q.zero) roots
      and xhi =
        List.fold_left
          (fun acc r ->
            if Qx.compare_q r p > 0 && Qx.compare acc r > 0 then r else acc)
          (Qx.of_q w) roots
      in
      { xlo; xhi; sample = p; structure }

(* The full piece enumeration over [0, total]; [bigint] forces the
   Bigint stage replay. *)
let exact_pieces_core ?(bigint = false) ~budget ~dctx
    ({ path_at; total = w; cost; _ } as param) =
  if Q.sign w <= 0 then []
  else begin
    let tables = tables () in
    (* Recursive cover of (a, b): sample once, carve out the sampled
       structure's full validity interval, recurse on what remains.
       Every recursion step discovers one piece (or a boundary point),
       so the work is proportional to the number of events, not to any
       grid resolution. *)
    let rec cover a b =
      if Qx.compare a b >= 0 then []
      else begin
        Budget.tick ~cost budget;
        let p = Qx.rational_between a b in
        let piece =
          exact_piece_at_core ~tables ~bigint ~dctx param p
        in
        let piece =
          { piece with xlo = Qx.max piece.xlo a; xhi = Qx.min piece.xhi b }
        in
        cover a piece.xlo @ (piece :: cover piece.xhi b)
      end
    in
    let pieces =
      Obs.Span.with_ "cover" (fun () -> cover (Qx.of_q Q.zero) (Qx.of_q w))
    in
    (* Merge touch points: a candidate root where the structure does not
       actually change (a double root grazing zero) splits the interval
       without an event; stitch such neighbours back together. *)
    let rec merge = function
      | a :: b :: rest
        when Qx.equal a.xhi b.xlo
             && Decompose.same_structure a.structure b.structure ->
          (* keep an interior sample: a degenerate piece absorbed into a
             wider neighbour must not leave the sample on the boundary *)
          let sample =
            if Qx.equal a.xlo a.xhi then b.sample else a.sample
          in
          merge ({ a with xhi = b.xhi; sample } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    let pieces = Obs.Span.with_ "merge" (fun () -> merge pieces) in
    (* The decomposition exactly at a rational boundary can differ from
       both open sides (a merge event's merged pair lives only at the
       point); materialise those as degenerate point pieces.  Irrational
       boundaries cannot be sampled in Q — by the same token no rational
       scan can ever observe their at-point structure, so they stay
       implicit. *)
    let structure_at x =
      Budget.tick ~cost budget;
      Decompose.compute ~ctx:dctx (path_at x)
    in
    let point_piece t tq =
      let d = structure_at tq in
      { xlo = t; xhi = t; sample = tq; structure = d }
    in
    let rec interior = function
      | a :: (b :: _ as rest) ->
          let t = a.xhi in
          if Qx.is_rational t then begin
            let pt = point_piece t (Qx.to_q_exn t) in
            if
              Decompose.same_structure pt.structure a.structure
              || Decompose.same_structure pt.structure b.structure
            then a :: interior rest
            else a :: pt :: interior rest
          end
          else a :: interior rest
      | rest -> rest
    in
    let rec with_last = function
      | [ last ] ->
          let pw = point_piece (Qx.of_q w) w in
          if Decompose.same_structure pw.structure last.structure then [ last ]
          else [ last; pw ]
      | a :: rest -> a :: with_last rest
      | [] -> []
    in
    Obs.Span.with_ "point_pieces" @@ fun () ->
    let pieces = interior pieces in
    let pieces =
      match pieces with
      | first :: _ ->
          let p0 = point_piece (Qx.of_q Q.zero) Q.zero in
          if Decompose.same_structure p0.structure first.structure then pieces
          else p0 :: pieces
      | [] -> []
    in
    with_last pieces
  end

(* [f] on [ctx]'s budget, with decompositions on [ctx] without it *)
let run ?ctx f =
  let ctx = Engine.Ctx.arm (Engine.Ctx.get ctx) in
  f ~budget:(Engine.Ctx.budget_or_unlimited ctx)
    ~dctx:(Engine.Ctx.without_budget ctx)

let split_param g ~v =
  let w = Graph.weight g v and n = Graph.n g in
  {
    path_at = (fun x -> (Sybil.split_free g ~v ~w1:x ~w2:(Q.sub w x)).Sybil.path);
    v1 = v;
    v2 = n;
    total = w;
    cost = 1 + n;
  }

let check_chain name g =
  if not (Graph.is_chain_graph g) then
    invalid_arg
      (Printf.sprintf
         "Breakpoints.%s: a vertex has degree > 2 (the exact piece \
          enumeration runs on rings and paths)"
         name)

let weight_param g ~v =
  let n = Graph.n g in
  if v < 0 || v >= n then invalid_arg "Breakpoints.exact_pieces: bad vertex id";
  check_chain "exact_pieces" g;
  {
    path_at = Graph.with_weight g v;
    v1 = v;
    v2 = -1;
    total = Graph.weight g v;
    cost = 1 + n;
  }

let exact_split_pieces ?ctx g ~v = run ?ctx (exact_pieces_core (split_param g ~v))
let exact_pieces ?ctx g ~v = run ?ctx (exact_pieces_core (weight_param g ~v))

let exact_slice_pieces ?ctx base ~v1 ~v2 ~total =
  let n = Graph.n base in
  if v1 < 0 || v1 >= n || v2 < 0 || v2 >= n || v1 = v2 then
    invalid_arg "Breakpoints.exact_slice_pieces: bad varying vertex ids";
  if Q.sign total < 0 then
    invalid_arg "Breakpoints.exact_slice_pieces: negative total";
  check_chain "exact_slice_pieces" base;
  let path_at x =
    Graph.with_weight (Graph.with_weight base v1 x) v2 (Q.sub total x)
  in
  run ?ctx (exact_pieces_core { path_at; v1; v2; total; cost = 1 + n })

let rec events = function
  | a :: (b :: _ as rest) ->
      if Decompose.same_structure a.structure b.structure then events rest
      else { at = a.xhi; left = a.structure; right = b.structure } :: events rest
  | _ -> []

let classify_event ev ~v =
  let pair_members d =
    let p = Decompose.pair_of d v in
    Vset.union p.b p.c
  in
  let members_before = pair_members ev.left
  and members_after = pair_members ev.right in
  (* The varying vertex's own ids are stable: compare the vertex sets of
     the pair containing v on each side of the event. *)
  let count_pairs_covering d target =
    List.length
      (List.filter
         (fun (p : Decompose.pair) ->
           not (Vset.disjoint (Vset.union p.b p.c) target))
         d)
  in
  if Vset.subset members_after members_before
     && count_pairs_covering ev.right members_before = 2
  then `Split
  else if Vset.subset members_before members_after
          && count_pairs_covering ev.left members_after = 2
  then `Merge
  else `Other

module For_testing = struct
  let int_replay_bound = int_replay_bound

  let param = function `Split -> split_param | `Weight -> weight_param

  let candidates ~bigint which g ~v ~p =
    let { path_at; v1; v2; total; _ } = param which g ~v in
    let path = path_at p in
    let structure = Decompose.compute path in
    (exact_candidates ~tables:(tables ()) ~bigint path ~v1 ~v2 ~total ~p
       structure)
      .cands

  let pieces_bigint ?ctx which g ~v =
    run ?ctx (exact_pieces_core ~bigint:true (param which g ~v))
end
